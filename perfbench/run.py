"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-saturated --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up time of a fresh process (median of several) and host operations
per second (median over repeated runs of the same seeded input), both
corrected to nominal host speed by ``hostspeed.py``; peak RSS; and the
simulated figures.  ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics (``perfbench/tracing.py``
spans plus the program's own telemetry and profiler) and the tracing
overhead.  Every run checks that repeated runs agree on the sha256
digest of the simulated outputs, that traced runs agree with untraced
ones, that the workload's invariants hold, and, for the default and
held-out seeds, that the digest equals the reference recorded in
``perfbench/reference_digests.json``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when ``correct`` is true; a
checkout without ``src/repro`` exits 2 before measuring anything.
Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_NS, HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_digests.json"

WORKLOAD_NAMES = ("serve-saturated", "federation-light", "store-mixed",
                  "kv-ycsb")
#: Fresh-process set-ups timed per run; the median is ``setup_s``.
SETUP_SAMPLES = 3
#: Device names the ``service.util.<device>`` metrics report.
DEVICE_NAMES = ("cpu-deflate", "qat8970", "qat4xxx", "dpzip", "cpu-snappy")


def _declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    reference = json.loads(REFERENCE.read_text())
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int,
                        default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# -- provenance ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(speed: HostSpeed) -> dict:
    src_loc = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as handle:
            src_loc += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_loc": src_loc,
        # The fixed calibration loop, timed all through this run:
        # entries from different hosts compare as ratios to it.
        "reference_loop_ns": NOMINAL_NS * speed.factor(),
        "reference_loop_samples": len(speed.samples),
        "nominal_reference_loop_ns": NOMINAL_NS,
    }


# -- measuring ----------------------------------------------------------------

def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, host slowdown factor) of fresh processes that
    import and assemble ``workload``; each child samples its own host
    speed and prints the factor."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, check=True, timeout=170,
                              capture_output=True, text=True)
        samples.append((time.perf_counter() - start, float(done.stdout)))
    return samples


def _timed(workload, speed: HostSpeed, traced: bool = False):
    """Run once; return the outcome, wall seconds and the host slowdown
    factor over the run.  Callers collect garbage from earlier runs
    first, outside the timed region (and outside any root span), so
    peak memory is one run's."""
    mark = speed.mark()
    start = time.perf_counter()
    outcome = workload.execute(workload.prepare(traced=traced))
    seconds = time.perf_counter() - start
    return outcome, seconds, speed.factor(mark)


class Checks:
    """Correctness bookkeeping shared by both modes."""

    def __init__(self, workload: str, seed: int) -> None:
        digests = json.loads(REFERENCE.read_text())["digests"]
        self.reference = digests.get(workload, {}).get(str(seed))
        self.digests: set[str] = set()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, outcome, counted: bool = True) -> None:
        self.digests.add(outcome.digest)
        self.errors.extend(outcome.errors)
        if counted:
            self.attempted += outcome.ops
            self.failed += outcome.failed

    def verdict(self) -> tuple[bool, list[str]]:
        problems = list(dict.fromkeys(self.errors))
        if len(self.digests) != 1:
            problems.append(f"runs disagree on the output digest: "
                            f"{sorted(self.digests)}")
        elif self.reference is not None \
                and self.reference not in self.digests:
            problems.append(f"digest {next(iter(self.digests))} differs "
                            f"from the reference {self.reference}")
        return not problems, problems


def measure_end_to_end(args, workload,
                       speed: HostSpeed) -> tuple[dict, Checks, dict]:
    setup = _setup_seconds(args.workload, args.seed)
    checks = Checks(args.workload, args.seed)
    # Warm-up: first-use costs (calibration, cost-table rows, population
    # realization) are set-up, which setup_s already reports.  A
    # workload without such caches counts its first run.
    gc.collect()
    first, first_s, first_factor = _timed(workload, speed)
    checks.add(first, counted=not workload.warm_up)
    runs = [] if workload.warm_up else [(first_s, first_factor)]
    deadline = time.perf_counter() + args.seconds \
        - (0.0 if workload.warm_up else first_s)
    while time.perf_counter() < deadline:
        gc.collect()
        outcome, seconds, factor = _timed(workload, speed)
        checks.add(outcome)
        runs.append((seconds, factor))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        # Host times at nominal host speed (see hostspeed.py); the raw
        # wall times and factors are kept in the result file.
        "setup_s": statistics.median(wall / factor
                                     for wall, factor in setup),
        "ops_per_s": statistics.median(first.ops * factor / seconds
                                       for seconds, factor in runs),
        "peak_rss_mb": rss_kb / 1024.0,
        "sim_goodput_gbps": first.sim["goodput_gbps"],
        "sim_mean_us": first.sim["mean_us"],
        "sim_p99_us": first.sim["p99_us"],
    }
    detail = {
        "setup_wall_s_and_factor": setup,
        "run_wall_s_and_factor": runs,
        "ops_per_run": first.ops,
        "sim": first.sim,
    }
    return metrics, checks, detail


def _layer_metrics(tracer, outcome, setup: dict) -> dict:
    """Per-layer metrics of one traced run."""
    self_s = {layer: ns / 1e9 for layer, ns in tracer.self_ns.items()}
    inclusive = tracer.inclusive_ns
    calls = tracer.calls
    nbytes = tracer.nbytes

    def per_call_us(*keys: str) -> float:
        count = sum(calls.get(key, 0) for key in keys)
        total = sum(inclusive.get(key, 0) for key in keys)
        return total / count / 1e3 if count else 0.0

    def mb_per_s(key: str) -> float:
        ns = inclusive.get(key, 0)
        return nbytes.get(key, 0) * 1e3 / ns if ns else 0.0

    layers = outcome.layers
    compress = "core:DeflateCodec.compress"
    tokenize = "core:ChainMatcher.tokenize"
    compressed_bytes = nbytes.get(compress, 0)
    inputs = tracer.compress_inputs
    store_ops = ("store:CompressedBlockStore.get",
                 "store:CompressedBlockStore.put")
    metrics = {
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.schedule_calls": tracer.counts.get("sim.schedule_calls", 0),
        "sim.us_per_request": self_s.get("sim", 0.0) * 1e6 / outcome.ops,
        "service.self_s": self_s.get("service", 0.0),
        "service.submits": calls.get("service:SchedulerCore.submit", 0),
        "service.us_per_submit": per_call_us("service:SchedulerCore.submit"),
        "service.spill_frac": layers.get("service.spill_frac", 0.0),
        "virt.self_s": self_s.get("virt", 0.0),
        "workloads.draw_s": self_s.get("workloads", 0.0),
        "workloads.realize_s": setup["realize_s"],
        "federation.self_s": self_s.get("federation", 0.0),
        "federation.routed": layers.get("federation.routed", 0),
        "federation.us_per_route":
            per_call_us("federation:GlobalRouter.submit"),
        "federation.remote_frac": layers.get("federation.remote_frac", 0.0),
        "store.self_s": self_s.get("store", 0.0),
        "store.us_per_op": per_call_us(*store_ops),
        "core.self_s": self_s.get("core", 0.0),
        "core.deflate.compress_mb_per_s": mb_per_s(compress),
        "core.deflate.decompress_mb_per_s":
            mb_per_s("core:DeflateCodec.decompress"),
        "core.lz77.tokenize_mb_per_s": mb_per_s(tokenize),
        "core.deflate.encode_s": (inclusive.get(compress, 0)
                                  - inclusive.get(tokenize, 0)) / 1e9,
        "core.lz77.chain_steps_per_byte":
            (tracer.matcher["chain_steps"] / compressed_bytes
             if compressed_bytes else 0.0),
        "core.lz77.compare_bytes_per_byte":
            (tracer.matcher["compare_bytes"] / compressed_bytes
             if compressed_bytes else 0.0),
        "core.deflate.repeat_share": (1.0 - len(set(inputs)) / len(inputs)
                                      if inputs else 0.0),
        "hw.self_s": self_s.get("hw", 0.0),
        "apps.kv.self_s": self_s.get("apps.kv", 0.0),
        "cluster.self_s": self_s.get("cluster", 0.0),
        "cluster.assemble_s": setup["assemble_s"],
        "telemetry.self_s": self_s.get("telemetry", 0.0),
        "telemetry.dropped": layers.get("telemetry.dropped", 0),
        "trace.coverage": tracer.coverage(),
    }
    for name in DEVICE_NAMES:
        metrics[f"service.util.{name}"] = layers.get(f"service.util.{name}",
                                                     0.0)
    for name in ("store.hit_rate", "store.coalesced_frac",
                 "store.compression_ratio", "store.read_p99_us",
                 "store.write_p99_us", "apps.kv.lsm_depth",
                 "apps.kv.physical_over_logical"):
        metrics[name] = layers.get(name, 0.0)
    profile = outcome.wall_profile
    metrics["telemetry.spans"] = (len(tracer.spans)
                                  + layers.get("telemetry.recorded", 0)
                                  + (sum(profile.calls.values())
                                     if profile is not None else 0))
    return metrics


def measure_per_layer(args, workload,
                      speed: HostSpeed) -> tuple[dict, Checks, dict]:
    import tracing

    tracer = tracing.Tracer()
    checks = Checks(args.workload, args.seed)
    tracing.install(tracer)
    with tracer.span("bench:setup"):
        prepared = workload.prepare(traced=True)
    tracer.summarize()
    setup = {
        "assemble_s": tracer.inclusive_ns.get(
            "cluster:Cluster.from_spec", 0) / 1e9,
        "realize_s": tracer.inclusive_ns.get(
            "workloads:population.realize_population", 0) / 1e9,
    }
    tracer.reset()
    with tracer.span(tracing.ROOT_KEY):
        warm = workload.execute(prepared)
    tracer.uninstall()
    checks.add(warm, counted=False)
    # Untraced and traced wall seconds at nominal host speed.
    untraced: list[float] = []
    traced: list[float] = []
    per_run: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        gc.collect()
        outcome, seconds, factor = _timed(workload, speed)
        checks.add(outcome)
        untraced.append(seconds / factor)
        gc.collect()
        tracing.install(tracer)
        tracer.reset()
        try:
            with tracer.span(tracing.ROOT_KEY):
                outcome, seconds_traced, factor = _timed(workload, speed,
                                                         traced=True)
        finally:
            tracer.uninstall()
        tracer.summarize()
        checks.add(outcome)
        traced.append(seconds_traced / factor)
        per_run.append(_layer_metrics(tracer, outcome, setup))
    metrics = {name: statistics.median(run[name] for run in per_run)
               for name in per_run[0]}
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    spans = metrics["telemetry.spans"]
    metrics["telemetry.ns_per_span"] = ((traced_s - untraced_s) * 1e9 / spans
                                        if spans else 0.0)
    metrics["telemetry.traced_over_untraced"] = traced_s / untraced_s
    tracer.write(OUT / f"spans-{args.workload}.jsonl",
                 {"workload": args.workload, "seed": args.seed})
    detail = {
        "untraced_s": untraced,
        "traced_s": traced,
        "sim": warm.sim,
        "wall_profile": (outcome.wall_profile.rows()
                         if outcome.wall_profile is not None else None),
    }
    return metrics, checks, detail


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with HostSpeed() as speed:
        import bench_workloads

        workload = bench_workloads.WORKLOADS[args.workload](args.seed)
        if args.setup_only:
            workload.prepare()
            print(speed.factor())
            return 0
        if args.trace:
            metrics, checks, detail = measure_per_layer(args, workload, speed)
            units = _declared_units("per_layer")
        else:
            metrics, checks, detail = measure_end_to_end(args, workload,
                                                         speed)
            units = _declared_units("end_to_end")
    stamp = provenance(speed)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: measured metrics {sorted(metrics)} "
                         f"differ from BENCHMARK.json {sorted(units)}")
    correct, problems = checks.verdict()
    detail["fail_frac"] = checks.failed / checks.attempted
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "digest": sorted(checks.digests),
              "reference_digest": checks.reference,
              "problems": problems, "provenance": stamp, "detail": detail,
              **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"digest={','.join(sorted(checks.digests))}")
    print(f"# provenance {json.dumps(stamp, sort_keys=True)}")
    print(f"# fail_frac={detail['fail_frac']:.6g} "
          f"sim_p50_us={detail['sim']['p50_us']:.6g} "
          f"latency_samples={detail['sim']['samples']}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>18.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
