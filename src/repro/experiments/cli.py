"""Command-line entry point: ``repro-experiment [names...]``.

Runs the requested experiments (default: all) and prints their tables.
``--full`` switches off quick mode for paper-scale workloads.

Subcommands expose the serving layer (the serving sweeps' registered
ids run the same sweeps in quick mode):

* ``repro-experiment cluster --spec cluster.json`` — one serving run
  over a declarative :class:`~repro.cluster.ClusterSpec` document
  (``--example-spec`` prints a starting point); open-loop,
  closed-loop (``--closed-loop``) or store traffic depending on the
  spec and flags;
* ``repro-experiment report --spec cluster.json`` — one run with
  telemetry forced on, analyzed into a pass/warn/fail
  :class:`~repro.telemetry.HealthReport` (SLO burn-rate alerts,
  scanner findings); ``--profile`` adds the host wall-clock
  attribution, ``--trace`` exports the annotated trace;
* ``repro-experiment sweep --spec sweep.json --workers N`` — a whole
  experiment grid from one declarative
  :class:`~repro.sweep.SweepSpec` document, executed inline, over a
  process pool, or — with ``--distributed`` / ``--hosts`` — over a
  socket-backed worker fleet with byte-identical rows
  (``--example-spec`` runs the built-in smoke grid,
  ``--print-example-spec`` dumps its JSON);
* ``repro-experiment federation --spec federation.json`` — one
  federated serving run over a declarative
  :class:`~repro.federation.FederationSpec` document: N member
  clusters on one shared simulator behind a global router
  (``--example-spec`` prints a 3-cluster, 100k-tenant starting point);
* ``repro-experiment worker --listen HOST:PORT`` — a sweep worker
  process that serves grid points to distributed drivers
  (``repro-experiment sweep --hosts ...``);
* ``repro-experiment service|store|slo`` — aliases of ``sweep`` for
  the serving sweeps (:data:`SWEEP_ALIASES`): the compress-offload
  scaling sweep (offered load x fleet mix x dispatch policy), the
  compressed block-store sweep (read fraction x cache size x dispatch
  policy) and the SLO-degradation sweep (brown-out timing x SLO mix x
  policy).  With no ``--spec`` an alias runs its module's
  ``build_sweep()`` defaults; ``--print-example-spec`` prints that
  spec to edit and pass back with ``--spec``.  The alias prints and
  exports its module's ``tabulate`` view instead of the flat sweep
  table.

Every sweep option (``--seed``, ``--workers``, ``--csv``, ``--json``,
``--trace``, ``--continue-on-error``, ``--distributed``/``--hosts``)
is declared once on the sweep parser and shared by the aliases;
``--csv``/``--json`` export the printed rows through the unified
flat-row formats of :mod:`repro.sweep.result`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from repro.errors import ReproError
from repro.experiments import (
    REGISTRY,
    run_experiment,
    service_scaling,
    slo_degradation,
    store_scaling,
)

#: Sweep-driver aliases: each module's ``build_sweep()`` is the default
#: spec and its ``tabulate(sweep)`` the printed and exported row view.
SWEEP_ALIASES = {"service": service_scaling, "store": store_scaling,
                 "slo": slo_degradation}

#: Shared ``--help`` epilog: where the correctness tooling lives.
CORRECTNESS_EPILOG = (
    "Correctness tooling: 'repro-lint src/' (or 'python -m "
    "repro.analyzers src/') runs the determinism & hot-path static "
    "analysis; --sanitize (on cluster/report) or REPRO_SANITIZE=1 (any "
    "subcommand) reruns the simulation under the runtime sanitizer, "
    "which validates engine invariants without changing results."
)


def _run_options() -> argparse.ArgumentParser:
    """Shared run and client-traffic flags for the cluster/report
    subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shared run options")
    group.add_argument("--spec", metavar="cluster.json",
                       help="path to a ClusterSpec JSON document")
    group.add_argument("--profile", action="store_true",
                       help="attribute host wall-clock to subsystems "
                            "and print the profile after the run")
    group.add_argument("--sanitize", action="store_true",
                       help="run on the sanitized simulator (engine "
                            "invariant checks; results are identical)")
    group.add_argument("--duration-ms", type=float, default=2.0,
                       help="virtual stream duration per run")
    group.add_argument("--tenants", type=int, default=4,
                       help="number of tenants in the request stream")
    group.add_argument("--seed", type=int, default=1234,
                       help="root seed; one number reproduces the "
                            "whole run")
    group = parent.add_argument_group("traffic options")
    group.add_argument("--load-gbps", type=float, default=36.0,
                       help="open-loop/store offered load in GB/s")
    group.add_argument("--closed-loop", action="store_true",
                       help="drive closed-loop windowed clients instead "
                            "of an open-loop stream")
    group.add_argument("--clients", type=int, default=4,
                       help="number of closed-loop clients")
    group.add_argument("--window", type=int, default=8,
                       help="per-client in-flight window")
    group.add_argument("--think-us", type=float, default=5.0,
                       help="per-client think time between requests")
    group.add_argument("--read-fraction", type=float, default=0.8,
                       help="store traffic read mix")
    return parent


def _positive_ms(text: str) -> float:
    """argparse type: a strictly positive millisecond count."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") \
            from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"interval must be > 0 ms, got {value:g}"
        )
    return value


def _telemetry_options() -> argparse.ArgumentParser:
    """Shared telemetry flags for the cluster/sweep subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry options")
    group.add_argument("--trace", metavar="trace.json",
                       help="record per-request spans and export them "
                            "as Chrome trace-event JSON (open the file "
                            "in ui.perfetto.dev)")
    group.add_argument("--metrics-interval-ms", type=_positive_ms,
                       metavar="MS",
                       help="sample queue depth, utilization, miss and "
                            "admission rates every MS of simulated time")
    return parent


def _warn_dropped(report, prog: str) -> None:
    """Loud stderr warning when the trace ring buffer overflowed."""
    if report is not None and report.dropped > 0:
        print(f"repro-experiment {prog}: warning: trace ring buffer "
              f"overflowed — dropped {report.dropped} of "
              f"{report.recorded} recorded events (oldest first); "
              f"raise TelemetrySpec.trace_capacity to keep them",
              file=sys.stderr)


def _telemetry_override(spec, trace: bool, interval_ms: float | None):
    """A ClusterSpec copy with the CLI telemetry flags merged in."""
    if not trace and interval_ms is None:
        return spec
    from repro.cluster import TelemetrySpec

    base = spec.telemetry if spec.telemetry is not None \
        else TelemetrySpec()
    return dataclasses.replace(spec, telemetry=dataclasses.replace(
        base,
        trace=base.trace or bool(trace),
        metrics_interval_ns=(interval_ms * 1e6 if interval_ms is not None
                             else base.metrics_interval_ns),
    ))


def _serve_spec(args, trace: bool, interval_ms: float | None):
    """One run of the ``--spec`` document: telemetry flags merged in,
    the traffic the shared flags describe attached."""
    from repro.cluster import Cluster, ClusterSpec

    with open(args.spec, encoding="utf-8") as handle:
        spec = ClusterSpec.from_json(handle.read())
    spec = _telemetry_override(spec, trace, interval_ms)
    cluster = Cluster.from_spec(spec,
                                sanitize=True if args.sanitize else None)
    if args.profile:
        cluster.enable_profiling()
    duration_ns = args.duration_ms * 1e6
    if spec.store is not None:
        cluster.store_client(offered_gbps=args.load_gbps,
                             duration_ns=duration_ns,
                             read_fraction=args.read_fraction,
                             tenants=args.tenants, seed=args.seed)
    elif args.closed_loop:
        for index in range(args.clients):
            cluster.closed_loop(window=args.window,
                                duration_ns=duration_ns,
                                think_ns=args.think_us * 1000.0,
                                tenant=index, seed=args.seed + index,
                                name=f"client{index}")
    else:
        cluster.open_loop(offered_gbps=args.load_gbps,
                          duration_ns=duration_ns,
                          tenants=args.tenants, seed=args.seed)
    return cluster.run()


def _point_trace_path(base: str, index: int) -> str:
    """Per-point trace file name under a sweep's --trace base path."""
    stem, dot, ext = base.rpartition(".")
    if dot and ext.lower() == "json":
        return f"{stem}-point{index}.json"
    return f"{base}-point{index}.json"


def cluster_main(argv: list[str]) -> int:
    """The ``cluster`` subcommand: one run over a ClusterSpec JSON."""
    from repro.cluster import default_cluster_spec
    from repro.profiling import format_table

    parser = argparse.ArgumentParser(
        prog="repro-experiment cluster",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options(), _telemetry_options()],
        description="Serve one run over a declarative cluster spec: "
                    "open-loop by default, closed-loop windowed clients "
                    "with --closed-loop, mixed GET/PUT store traffic "
                    "when the spec has a store section.",
    )
    parser.add_argument("--example-spec", action="store_true",
                        help="print a sample spec JSON and exit")
    parser.add_argument("--with-store", action="store_true",
                        help="include a block-store section in the "
                             "--example-spec output")
    args = parser.parse_args(argv)
    if args.example_spec:
        print(default_cluster_spec(store=args.with_store).to_json())
        return 0
    if not args.spec:
        print("repro-experiment cluster: error: --spec cluster.json is "
              "required (or --example-spec for a starting point)",
              file=sys.stderr)
        return 2
    try:
        result = _serve_spec(args, bool(args.trace),
                             args.metrics_interval_ms)
    except (OSError, ReproError) as error:
        print(f"repro-experiment cluster: error: {error}", file=sys.stderr)
        return 2
    print(f"== cluster: policy={result.policy} "
          f"duration={result.duration_ns / 1e6:g} ms ==")
    print(format_table([result.row()], floatfmt=".2f"))
    print("\nPer-client view:\n")
    print(format_table(result.clients, floatfmt=".2f"))
    if result.slo_breakdown:
        print("\nPer-SLO-class view:\n")
        print(format_table(result.slo_breakdown, floatfmt=".3f"))
    metrics_rows = result.metrics_rows()
    if metrics_rows:
        shown = metrics_rows[:10]
        print(f"\nMetrics time series ({len(shown)} of "
              f"{len(metrics_rows)} samples):\n")
        print(format_table(shown, floatfmt=".3f", intfmt=","))
    if args.profile:
        print()
        print(result.wall_profile.to_text())
    if args.trace:
        report = result.telemetry
        result.export_trace(args.trace)
        print(f"\nwrote {args.trace}: {len(report.events)} trace events "
              f"({report.dropped} dropped) — open in ui.perfetto.dev")
    _warn_dropped(result.telemetry, "cluster")
    return 0


def report_main(argv: list[str]) -> int:
    """The ``report`` subcommand: one run, analyzed into a health
    verdict.

    Forces telemetry on (spans + metrics sampling at
    ``--metrics-interval-ms``, default 1/50th of the run duration),
    runs the spec once, and prints the
    :class:`~repro.telemetry.HealthReport`: SLO burn-rate alerts,
    scanner findings, the per-objective pass/fail roll-up.  Exit code
    1 when the verdict is ``fail``, so the command doubles as a CI
    gate.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiment report",
        epilog=CORRECTNESS_EPILOG,
        parents=[_run_options()],
        description="Run one cluster spec with telemetry forced on and "
                    "print its run-health verdict: SLO burn-rate "
                    "alerts, scanner findings (saturation plateaus, "
                    "shed bursts, cache collapse, span gaps) and the "
                    "per-objective roll-up. Exits 1 on a fail verdict.",
    )
    parser.add_argument("--metrics-interval-ms", type=_positive_ms,
                        metavar="MS",
                        help="sampling period in simulated ms "
                             "(default: duration / 50)")
    parser.add_argument("--markdown", action="store_true",
                        help="render the health report as markdown")
    parser.add_argument("--trace", metavar="trace.json",
                        help="also export the trace (request spans, "
                             "metric counters, alert instants and — "
                             "with --profile — the host-time track)")
    args = parser.parse_args(argv)
    if not args.spec:
        print("repro-experiment report: error: --spec cluster.json is "
              "required ('repro-experiment cluster --example-spec' "
              "prints a starting point)", file=sys.stderr)
        return 2
    interval_ms = args.metrics_interval_ms \
        if args.metrics_interval_ms is not None else args.duration_ms / 50.0
    try:
        result = _serve_spec(args, True, interval_ms)
        health = result.health()
    except (OSError, ReproError) as error:
        print(f"repro-experiment report: error: {error}", file=sys.stderr)
        return 2
    print(health.to_markdown() if args.markdown else health.to_text())
    if args.profile:
        print()
        print(result.wall_profile.to_text())
    if args.trace:
        result.export_trace(args.trace)
        print(f"\nwrote {args.trace}: {len(result.telemetry.events)} "
              f"trace events, {len(health.alerts)} alert instant(s) — "
              f"open in ui.perfetto.dev")
    _warn_dropped(result.telemetry, "report")
    return 1 if health.verdict == "fail" else 0


def sweep_main(argv: list[str], alias: str | None = None) -> int:
    """The ``sweep`` subcommand: a whole grid from one SweepSpec JSON.

    ``alias`` (a :data:`SWEEP_ALIASES` key) swaps in that module's
    ``build_sweep()`` as the built-in spec, run when no ``--spec`` is
    given, and its ``tabulate`` view for the printed and exported
    rows.
    """
    from repro.profiling import format_table
    from repro.sweep import SweepRunner, SweepSpec, example_sweep_spec

    module = SWEEP_ALIASES.get(alias)
    prog = f"repro-experiment {alias or 'sweep'}"
    if module is None:
        builtin_spec = example_sweep_spec
        description = ("Expand a declarative SweepSpec document into its "
                       "grid of cluster specs and run every point — "
                       "inline, or fanned out over --workers processes "
                       "with identical results.")
    else:
        builtin_spec = module.build_sweep
        description = (f"{module.__doc__.splitlines()[0]} Runs the "
                       f"built-in spec unless --spec replaces it; "
                       f"--print-example-spec prints it to edit.")
    parser = argparse.ArgumentParser(
        prog=prog,
        epilog=CORRECTNESS_EPILOG,
        parents=[_telemetry_options()],
        description=description,
    )
    parser.add_argument("--spec", metavar="sweep.json",
                        help="path to a SweepSpec JSON document")
    parser.add_argument("--example-spec", action="store_true",
                        help="run the built-in spec ('sweep': load x "
                             "policy over a two-device fleet; the "
                             "service/store/slo aliases run theirs by "
                             "default)")
    parser.add_argument("--print-example-spec", action="store_true",
                        help="print the built-in SweepSpec JSON and "
                             "exit")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for the grid "
                             "(0 = run every point inline)")
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the result rows as CSV")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result rows as JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's root_seed")
    parser.add_argument("--continue-on-error", action="store_true",
                        help="record failing points and keep sweeping "
                             "instead of failing fast")
    parser.add_argument("--distributed", action="store_true",
                        help="fan points out over socket workers "
                             "(spawns --workers localhost processes "
                             "unless --hosts lists pre-started ones)")
    parser.add_argument("--hosts", nargs="+", metavar="HOST:PORT",
                        help="pre-started 'repro-experiment worker' "
                             "addresses (implies --distributed)")
    parser.add_argument("--heartbeat-timeout-s", type=float, default=10.0,
                        help="seconds of worker silence before the "
                             "driver declares it dead and requeues "
                             "its point")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    args = parser.parse_args(argv)
    if args.print_example_spec:
        print(builtin_spec().to_json())
        return 0
    runs_builtin = args.example_spec or (module is not None
                                         and not args.spec)
    if bool(args.spec) == runs_builtin:
        print(f"{prog}: error: pass exactly one of --spec sweep.json or "
              f"--example-spec (--print-example-spec dumps the built-in "
              f"document)", file=sys.stderr)
        return 2

    def progress(done: int, total: int, point) -> None:
        if not args.quiet:
            print(f"[{done}/{total}] {point.describe()}",
                  file=sys.stderr)

    try:
        if args.spec:
            with open(args.spec, encoding="utf-8") as handle:
                spec = SweepSpec.from_json(handle.read())
        else:
            spec = builtin_spec()
        if args.seed is not None:
            spec = dataclasses.replace(spec, root_seed=args.seed)
        spec = dataclasses.replace(spec, cluster=_telemetry_override(
            spec.cluster, bool(args.trace), args.metrics_interval_ms))
        runner = SweepRunner(
            spec, workers=args.workers,
            on_error="continue" if args.continue_on_error else "raise",
            progress=progress,
            distributed=args.distributed,
            hosts=args.hosts,
            heartbeat_timeout_s=args.heartbeat_timeout_s)
        result = runner.run()
    except (OSError, ReproError) as error:
        print(f"{prog}: error: {error}", file=sys.stderr)
        return 2
    if module is None:
        backend = ("sockets" if runner.distributed
                   else ("inline" if args.workers == 0 else "pool"))
        print(f"== sweep: {len(result.points)} points "
              f"(grid {spec.grid_size()}), root seed {spec.root_seed}, "
              f"workers {args.workers}, backend {backend} ==")
        table = result
    else:
        table = module.tabulate(result)
    if runner.dispatch_dead_workers:
        print(f"{prog}: warning: "
              f"{len(runner.dispatch_dead_workers)} worker(s) died "
              f"({', '.join(runner.dispatch_dead_workers)}); "
              f"{runner.dispatch_requeues} point(s) requeued",
              file=sys.stderr)
    print(table.table())
    if args.csv:
        table.to_csv(args.csv)
    if args.json:
        table.to_json(args.json)
    if args.trace:
        written = [run.export_trace(_point_trace_path(args.trace,
                                                      point.index))
                   for point, run in result]
        print(f"wrote {len(written)} per-point trace files "
              f"({_point_trace_path(args.trace, 0)} ...)")
    for point, run in result:
        if run.telemetry is not None and run.telemetry.dropped > 0:
            _warn_dropped(run.telemetry,
                          f"{alias or 'sweep'} point {point.index}")
    if result.failures:
        print(f"\n{len(result.failures)} point(s) failed:",
              file=sys.stderr)
        print(format_table([failure.row()
                            for failure in result.failures]),
              file=sys.stderr)
        return 1
    return 0


def federation_main(argv: list[str]) -> int:
    """The ``federation`` subcommand: one multi-cluster serving run."""
    from repro.federation import Federation, example_federation_spec
    from repro.profiling import format_table

    parser = argparse.ArgumentParser(
        prog="repro-experiment federation",
        epilog=CORRECTNESS_EPILOG,
        description="Serve one federated run over a declarative "
                    "FederationSpec document: every member cluster on "
                    "one shared simulator behind a global router "
                    "(static-pinning / least-loaded / "
                    "locality-affinity), heavy-tailed tenant "
                    "population and diurnal load included, with "
                    "per-cluster and cross-cluster breakdowns.",
    )
    parser.add_argument("--spec", metavar="federation.json",
                        help="path to a FederationSpec JSON document")
    parser.add_argument("--example-spec", action="store_true",
                        help="print a sample 3-cluster, 100k-tenant "
                             "spec JSON and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's root_seed")
    parser.add_argument("--trace", metavar="trace.json",
                        help="export the multi-track trace (one "
                             "'<member>/...' track group per cluster "
                             "plus the router's hop spans) as Chrome "
                             "trace-event JSON")
    parser.add_argument("--sanitize", action="store_true",
                        help="run on the sanitized simulator (engine "
                             "invariant checks; results are identical)")
    args = parser.parse_args(argv)
    if args.example_spec:
        print(example_federation_spec().to_json())
        return 0
    if not args.spec:
        print("repro-experiment federation: error: --spec "
              "federation.json is required (or --example-spec for a "
              "starting point)", file=sys.stderr)
        return 2
    try:
        from repro.federation import FederationSpec

        with open(args.spec, encoding="utf-8") as handle:
            spec = FederationSpec.from_json(handle.read())
        if args.seed is not None:
            spec = dataclasses.replace(spec, root_seed=args.seed)
        federation = Federation.from_spec(
            spec, sanitize=True if args.sanitize else None)
        result = federation.run()
    except (OSError, ReproError) as error:
        print(f"repro-experiment federation: error: {error}",
              file=sys.stderr)
        return 2
    run = result.run
    print(f"== federation: {len(spec.members)} clusters "
          f"({', '.join(spec.member_names())}), routing={spec.routing}, "
          f"duration={run.duration_ns / 1e6:g} ms ==")
    print(format_table([result.row()], floatfmt=".2f"))
    print("\nPer-cluster view:\n")
    print(format_table(result.member_rows(), floatfmt=".2f"))
    print("\nCross-cluster routing:\n")
    print(format_table(result.router_rows(), floatfmt=".3f"))
    if run.slo_breakdown:
        print("\nPer-SLO-class view (worst member's percentiles):\n")
        print(format_table(run.slo_breakdown, floatfmt=".3f"))
    if args.trace:
        report = run.telemetry
        if report is None:
            print("repro-experiment federation: warning: --trace "
                  "ignored — the spec has no telemetry section",
                  file=sys.stderr)
        else:
            run.export_trace(args.trace)
            print(f"\nwrote {args.trace}: {len(report.events)} trace "
                  f"events ({report.dropped} dropped) — open in "
                  f"ui.perfetto.dev")
    _warn_dropped(run.telemetry, "federation")
    return 0


def worker_main(argv: list[str]) -> int:
    """The ``worker`` subcommand: serve sweep points to remote drivers."""
    from repro.federation import serve_worker

    parser = argparse.ArgumentParser(
        prog="repro-experiment worker",
        epilog=CORRECTNESS_EPILOG,
        description="Run a sweep worker: listens for a distributed "
                    "driver ('repro-experiment sweep --hosts ...'), "
                    "executes the grid points it sends, and streams "
                    "results (and heartbeats) back. One driver at a "
                    "time; runs until interrupted unless "
                    "--max-sessions caps it.",
    )
    parser.add_argument("--listen", metavar="HOST:PORT",
                        default="127.0.0.1:0",
                        help="address to bind (default 127.0.0.1:0 = "
                             "any free port, printed on startup)")
    parser.add_argument("--heartbeat-interval-s", type=float, default=1.0,
                        help="seconds between liveness heartbeats to "
                             "the connected driver")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="exit after serving this many driver "
                             "sessions (default: run forever)")
    args = parser.parse_args(argv)
    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text:
        print(f"repro-experiment worker: error: --listen must be "
              f"HOST:PORT, got {args.listen!r}", file=sys.stderr)
        return 2
    try:
        port = int(port_text)
    except ValueError:
        print(f"repro-experiment worker: error: port must be an "
              f"integer, got {port_text!r}", file=sys.stderr)
        return 2

    def announce(bound_port: int) -> None:
        print(f"repro-experiment worker: listening on "
              f"{host}:{bound_port}", flush=True)

    try:
        serve_worker(host, port, max_sessions=args.max_sessions,
                     heartbeat_interval_s=args.heartbeat_interval_s,
                     ready=announce)
    except KeyboardInterrupt:
        return 0
    except (OSError, ReproError) as error:
        print(f"repro-experiment worker: error: {error}", file=sys.stderr)
        return 2
    return 0


#: Subcommand name -> entry point; the serving sweeps are aliases of
#: ``sweep`` with their own built-in spec and row view.
SUBCOMMANDS = {
    "cluster": cluster_main,
    "report": report_main,
    "sweep": sweep_main,
    "federation": federation_main,
    "worker": worker_main,
    **{alias: functools.partial(sweep_main, alias=alias)
       for alias in SWEEP_ALIASES},
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        description="Reproduce figures/tables from the ASIC-CDPU paper.",
        epilog=CORRECTNESS_EPILOG,
    )
    parser.add_argument("names", nargs="*",
                        help="experiment ids (default: all), or the "
                             f"{'/'.join(map(repr, SUBCOMMANDS))} "
                             "subcommands (see e.g. "
                             "'repro-experiment sweep --help')")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale workloads instead of quick mode")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids")
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return 0
    names = args.names or sorted(REGISTRY)
    for subcommand in SUBCOMMANDS:
        if subcommand in names:
            # Flags placed before the subcommand land here; point at the
            # required ordering instead of "unknown experiment '...'".
            print(f"'{subcommand}' is a subcommand and must come first: "
                  f"repro-experiment {subcommand} [options] "
                  f"(see 'repro-experiment {subcommand} --help')",
                  file=sys.stderr)
            return 2
    for name in names:
        try:
            result = run_experiment(name, quick=not args.full)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        print(result.table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
