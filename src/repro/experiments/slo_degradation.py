"""SLO-degradation sweep: brown-out timing x SLO mix x policy.

The paper's multi-tenant results (Figure 20, Findings 9-10) show that
placement only pays off when the serving layer reacts to tenant
priorities and device state.  This sweep injects a brown-out — the
peripheral QAT derated to a fraction of nominal speed partway through
the run — and compares the flat cost-model policy against the
deadline-aware scheduler across SLO mixes: per-class deadline-miss
rates show the flat policy spreading the pain evenly while the
SLO-aware control plane concentrates it on the batch tier.

The whole experiment is one declarative :class:`~repro.sweep.SweepSpec`
(:func:`build_sweep`): the brown-out axis overrides each point's
``reconfig`` schedule with a :class:`~repro.cluster.ReconfigEvent`,
the mix axis overrides ``slo_mix``, and
:class:`~repro.sweep.SweepRunner` executes the grid; :func:`tabulate`
turns the runs into per-class miss-rate rows.  ``repro-experiment
slo`` runs the same spec on the sweep driver; brown-out times are
absolute ``at_ns`` values there, and one at or past the run horizon is
rejected rather than silently reproducing the healthy baseline.
"""

from __future__ import annotations

from repro.cluster import (
    ClusterSpec,
    FleetSpec,
    ReconfigEvent,
    SloShare,
    SloSpec,
)
from repro.errors import ServiceError
from repro.experiments.common import ExperimentResult, register
from repro.experiments.service_scaling import MIXES, SPILL
from repro.service import SloClass
from repro.sweep import AxisPoint, SweepAxis, SweepResult, SweepSpec, \
    WorkloadSpec, run_sweep_spec

DEFAULT_POLICIES = ("cost-model", "deadline")

#: Foreground/background classes tuned to the mixed fleet's latency
#: profile: interactive traffic expects sub-150 us completions, batch
#: tolerates 4 ms.
INTERACTIVE_150US = SloClass("interactive", tier=0, deadline_ns=150_000.0)
BATCH_4MS = SloClass("batch", tier=2, deadline_ns=4_000_000.0)

#: SLO mixes by name: fraction of interactive (foreground) traffic.
SLO_MIXES = {
    "fg-light": ((INTERACTIVE_150US, 0.15), (BATCH_4MS, 0.85)),
    "fg-heavy": ((INTERACTIVE_150US, 0.45), (BATCH_4MS, 0.55)),
}


def _slo_mix_spec(mix_name: str) -> tuple[SloShare, ...]:
    return tuple(SloShare(slo=SloSpec.from_class(cls), weight=weight)
                 for cls, weight in SLO_MIXES[mix_name])


def slo_mix_axis(mixes: tuple[str, ...]) -> SweepAxis:
    """A named-mix axis overriding the cluster's whole ``slo_mix``."""
    for mix_name in mixes:
        if mix_name not in SLO_MIXES:
            raise ServiceError(
                f"unknown SLO mix {mix_name!r}; known: {sorted(SLO_MIXES)}"
            )
    return SweepAxis("mix", tuple(
        AxisPoint(label=mix_name,
                  overrides={"slo_mix": _slo_mix_spec(mix_name)})
        for mix_name in mixes))


def brownout_axis(brownout_fracs: tuple[float | None, ...],
                  duration_ns: float,
                  device: str,
                  speed_factor: float) -> SweepAxis:
    """Brown-out instants as ``reconfig``-schedule overrides.

    ``None`` is the healthy baseline (empty schedule), labelled
    ``-1.0`` in result rows so the column stays numeric.
    """
    points = []
    for frac in brownout_fracs:
        if frac is None:
            points.append(AxisPoint(label=-1.0,
                                    overrides={"reconfig": []}))
            continue
        event = ReconfigEvent(at_ns=frac * duration_ns,
                              action="brown-out", device=device,
                              speed_factor=speed_factor)
        points.append(AxisPoint(label=frac,
                                overrides={"reconfig": [event]}))
    return SweepAxis("brownout_at", tuple(points))


def build_sweep(brownout_fracs: tuple[float | None, ...] = (None, 0.33),
                mixes: tuple[str, ...] = ("fg-heavy",),
                policies: tuple[str, ...] = DEFAULT_POLICIES,
                offered_gbps: float = 40.0,
                duration_ns: float = 3e6,
                speed_factor: float = 0.15,
                device: str = "qat8970",
                tenants: int = 4,
                queue_limit: int = 6,
                seed: int = 11,
                spill: bool = False) -> SweepSpec:
    """The full cross product as one declarative sweep description.

    ``brownout_fracs`` entries are fractions of the stream duration at
    which ``device`` derates to ``speed_factor`` (``None`` = healthy
    baseline).  Device queues are kept shallow (``queue_limit``) so
    backpressure reaches the scheduler, where dispatch order and
    shedding policy differ between the schedulers under test.
    """
    if not 0.0 < speed_factor <= 1.0:
        raise ServiceError(
            f"speed factor {speed_factor} outside (0, 1]"
        )
    # Build the mix axis first: it validates every mix name with a
    # helpful ServiceError before _slo_mix_spec(mixes[0]) could
    # KeyError.
    mixes_axis = slo_mix_axis(mixes)
    return SweepSpec(
        cluster=ClusterSpec(
            fleet=FleetSpec(devices=MIXES["mixed"],
                            spill=SPILL if spill else None,
                            queue_limit=queue_limit),
            slo_mix=_slo_mix_spec(mixes[0]),
        ),
        workload=WorkloadSpec(mode="open-loop",
                              offered_gbps=offered_gbps,
                              duration_ns=duration_ns,
                              tenants=tenants),
        axes=(
            mixes_axis,
            brownout_axis(brownout_fracs, duration_ns, device,
                          speed_factor),
            SweepAxis.over("policy", "policy", policies),
        ),
        root_seed=seed,
    )


def _brownout_clause(spec: SweepSpec) -> str:
    """The notes' brown-out clause, from the first brown-out event the
    base document or any axis point schedules."""
    events = list(spec.cluster.reconfig) + [
        ReconfigEvent.from_dict(event)
        for axis in spec.axes for point in axis.points
        for event in point.overrides.get("reconfig", ())]
    for event in events:
        if event.action == "brown-out":
            return (f"{event.device} derated to {event.speed_factor:g}x "
                    f"mid-run")
    return "no brown-out scheduled"


def tabulate(sweep: SweepResult) -> ExperimentResult:
    """Per-class miss rates of every run as the experiment's table."""
    spec = sweep.spec
    result = ExperimentResult(
        experiment_id="slo_degradation",
        title="SLO classes under brown-out: miss rates by timing, "
              "mix and policy",
        notes=f"{_brownout_clause(spec)}; "
              f"open-loop {spec.workload.offered_gbps:g} GB/s"
              + ("; spill device: cpu-snappy"
                 if spec.cluster.fleet.spill is not None
                 else "; no spill device"),
    )
    for point, run in sweep:
        report = run.service
        result.rows.append({
            **point.coords,
            "completed_gbps": report.completed_gbps,
            "fg_miss_rate": report.slo_miss_rate("interactive"),
            "bg_miss_rate": report.slo_miss_rate("batch"),
            "fg_p99_us": next(
                (row["p99_us"] for row in report.slo_breakdown
                 if row["slo"] == "interactive"), 0.0),
            "shed": report.shed,
        })
    return result


@register("slo_degradation")
def run(quick: bool = True) -> ExperimentResult:
    if quick:
        return tabulate(run_sweep_spec(build_sweep()))
    return tabulate(run_sweep_spec(build_sweep(
        brownout_fracs=(None, 0.1, 0.33, 0.66),
        mixes=("fg-light", "fg-heavy"), duration_ns=10e6)))
