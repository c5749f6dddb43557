"""The :class:`Federation` session: one FederationSpec in, one merged
result out.

``Federation.from_spec(spec)`` assembles every member cluster on ONE
shared :class:`~repro.sim.engine.Simulator` (each member's telemetry
scoped onto ``<member>/...`` tracks of the single federation-level
sink), puts a :class:`~repro.federation.router.GlobalRouter` in front
of the member schedulers, and drives the federation-wide open-loop
stream — heavy-tailed population and diurnal modulation included —
through an ordinary :class:`~repro.cluster.clients.OpenLoopClient`
pointed at the router.  :meth:`Federation.run` runs on the cluster
session's run loop (measurement horizon, sampler, end-of-stream flush
across every member, drain, sanitizer finish hook) and adds only what
a federation alone has: the router-driven client, its gauges and the
member-report merge.  It returns a
:class:`~repro.federation.result.FederationResult` whose merged
:class:`~repro.cluster.result.RunResult` feeds every existing table,
export and health path.
"""

from __future__ import annotations

from repro.cluster.clients import OpenLoopClient
from repro.cluster.result import RunResult
from repro.cluster.session import Cluster, _new_simulator, _run_loop
from repro.errors import FederationError
from repro.federation.result import FederationResult, merge_service_reports
from repro.federation.router import GlobalRouter
from repro.federation.spec import FederationSpec
from repro.sim.engine import Simulator
from repro.telemetry import DISABLED, Telemetry

__all__ = ["Federation"]


class Federation:
    """A live federated serving session.  Build via :meth:`from_spec`,
    call :meth:`run` exactly once."""

    def __init__(self, spec: FederationSpec, sim: Simulator,
                 clusters: list[tuple[str, Cluster]],
                 telemetry: Telemetry = DISABLED) -> None:
        self.spec = spec
        self.sim = sim
        self.clusters = clusters
        self.telemetry = telemetry
        self.router = GlobalRouter(
            sim,
            [(name, cluster.scheduler, member.link)
             for (name, cluster), member in zip(clusters, spec.members)],
            routing=spec.routing,
            affinity_threshold=spec.affinity_threshold,
            telemetry=telemetry,
        )
        self._ran = False

    @classmethod
    def from_spec(cls, spec: FederationSpec,
                  *, sanitize: bool | None = None) -> "Federation":
        """Assemble the shared simulator, members, telemetry, router.

        ``sanitize`` picks the simulator as in
        :meth:`~repro.cluster.session.Cluster.from_spec`.
        """
        sim = _new_simulator(sanitize)
        telemetry = (Telemetry(spec.telemetry)
                     if spec.telemetry is not None else DISABLED)
        clusters = [
            (member.name,
             Cluster.from_spec(member.cluster, sim=sim,
                               telemetry=telemetry.scoped(member.name)))
            for member in spec.members
        ]
        return cls(spec, sim, clusters, telemetry=telemetry)

    @classmethod
    def from_json(cls, text: str,
                  *, sanitize: bool | None = None) -> "Federation":
        return cls.from_spec(FederationSpec.from_json(text),
                             sanitize=sanitize)

    # -- running ---------------------------------------------------------------

    def run(self) -> FederationResult:
        """Drive the federated stream to completion and report."""
        if self._ran:
            raise FederationError(
                "federation already ran; build a new one for another run"
            )
        from repro.sweep.runner import build_open_loop_stream
        workload = self.spec.workload
        stream = build_open_loop_stream(
            workload, seed=self.spec.root_seed + workload.seed_offset)
        driver = OpenLoopClient(self.router, stream, name="federated")
        horizon = _run_loop(
            self, [driver],
            [cluster.scheduler for _, cluster in self.clusters],
            self._register_gauges,
            reconfig=tuple(event for member in self.spec.members
                           for event in member.cluster.reconfig))
        return self._report(driver, horizon)

    # -- telemetry -------------------------------------------------------------

    def _register_gauges(self) -> None:
        """Federation-level time series: per-member queue depth and
        utilization, plus the global remote-routing fraction."""
        registry = self.telemetry.metrics
        for name, cluster in self.clusters:
            scheduler = cluster.scheduler
            registry.gauge(f"pending_{name}",
                           lambda s=scheduler: float(s.pending))
            registry.gauge(f"util_{name}",
                           lambda s=scheduler: s.utilization())
        router = self.router
        registry.gauge(
            "remote_fraction",
            lambda: (sum(router.remote) / sum(router.routed)
                     if sum(router.routed) else 0.0))

    # -- reporting -------------------------------------------------------------

    def _report(self, driver: OpenLoopClient,
                horizon: float) -> FederationResult:
        member_reports = [
            (name, cluster.scheduler.report(duration_ns=horizon))
            for name, cluster in self.clusters
        ]
        merged = merge_service_reports(member_reports, self.spec.routing,
                                       horizon, driver.latency)
        telemetry_report = None
        if self.telemetry.enabled:
            telemetry_report = self.telemetry.report()
            telemetry_report.horizon_ns = horizon
            if self.spec.telemetry is not None:
                telemetry_report.objectives = \
                    self.spec.telemetry.objectives
        run = RunResult(
            duration_ns=horizon,
            service=merged,
            clients=[driver.row()],
            telemetry=telemetry_report,
        )
        return FederationResult(run=run, members=member_reports,
                                router=self.router.report())
