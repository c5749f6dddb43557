"""Service-scaling sweep: offered load x fleet mix x dispatch policy.

Extends the paper's single-device profiling into the serving regime the
ROADMAP targets: an open-loop multi-tenant stream is routed across a
fleet mixing the Figure 1 placements, once per dispatch policy.  The
sweep shows (a) all policies tie below saturation, (b) placement-aware
cost-model dispatch sustains the highest goodput past saturation while
placement-oblivious policies shed on their slowest member, and (c) tail
latency separates the policies well before throughput does.

The whole experiment is one declarative :class:`~repro.sweep.SweepSpec`
(:func:`build_sweep`) — a base cluster plus mix/load/policy axes —
executed through :class:`~repro.sweep.SweepRunner`; this module only
builds the spec and tabulates the runs (:func:`tabulate`).
``repro-experiment service`` runs the same spec on the sweep driver
(``--print-example-spec`` prints it, ``--spec`` replaces it).
"""

from __future__ import annotations

from repro.cluster import ClusterSpec, DeviceSpec, FleetSpec
from repro.errors import ServiceError
from repro.experiments.common import ExperimentResult, register
from repro.sweep import AxisPoint, SweepAxis, SweepResult, SweepSpec, \
    WorkloadSpec, run_sweep_spec

DEFAULT_POLICIES = ("static", "round-robin", "shortest-queue", "cost-model")

#: Fleet mixes by name; "mixed" is one device per Figure 1 column.
#: The two DPZip engines of the "asic" mix carry distinct names — the
#: fleet builder rejects duplicate device names.
MIXES: dict[str, tuple[DeviceSpec, ...]] = {
    "mixed": (DeviceSpec("cpu"), DeviceSpec("qat8970"),
              DeviceSpec("qat4xxx"), DeviceSpec("dpzip")),
    "asic": (DeviceSpec("qat8970"), DeviceSpec("qat4xxx"),
             DeviceSpec("dpzip", name="dpzip0"),
             DeviceSpec("dpzip", name="dpzip1")),
}

#: The emergency spill valve: a small reserve of CPU threads running
#: snappy, deliberately much smaller than the fleet it protects.
SPILL = DeviceSpec("cpu", algorithm="snappy", threads=16)


def mix_axis(mixes: tuple[str, ...]) -> SweepAxis:
    """A named-mix axis overriding the whole fleet device list."""
    for mix_name in mixes:
        if mix_name not in MIXES:
            raise ServiceError(
                f"unknown fleet mix {mix_name!r}; known: {sorted(MIXES)}"
            )
    return SweepAxis("mix", tuple(
        AxisPoint(label=mix_name,
                  overrides={"fleet.devices": MIXES[mix_name]})
        for mix_name in mixes))


def build_sweep(loads_gbps: tuple[float, ...] = (8.0, 24.0, 48.0),
                policies: tuple[str, ...] = DEFAULT_POLICIES,
                mixes: tuple[str, ...] = ("mixed",),
                duration_ns: float = 2e6,
                tenants: int = 4,
                seed: int = 29,
                spill: bool = True) -> SweepSpec:
    """The full cross product as one declarative sweep description."""
    if not loads_gbps:
        raise ServiceError("need at least one offered-load point")
    # Build the mix axis first: it validates every mix name with a
    # helpful ServiceError before MIXES[mixes[0]] could KeyError.
    mixes_axis = mix_axis(mixes)
    return SweepSpec(
        cluster=ClusterSpec(
            fleet=FleetSpec(devices=MIXES[mixes[0]],
                            spill=SPILL if spill else None),
        ),
        workload=WorkloadSpec(mode="open-loop",
                              duration_ns=duration_ns,
                              offered_gbps=loads_gbps[0],
                              tenants=tenants),
        axes=(
            mixes_axis,
            SweepAxis.over("offered_gbps", "workload.offered_gbps",
                           loads_gbps),
            SweepAxis.over("policy", "policy", policies),
        ),
        root_seed=seed,
    )


def tabulate(sweep: SweepResult) -> ExperimentResult:
    """Per-run service reports as the experiment's table."""
    spill = sweep.spec.cluster.fleet.spill is not None
    result = ExperimentResult(
        experiment_id="service_scaling",
        title="Offload service: goodput/latency by load, mix and policy",
        notes="open-loop Poisson arrivals; spill device: cpu-snappy"
        if spill else "open-loop Poisson arrivals; no spill device",
    )
    for point, run in sweep:
        report = run.service
        result.rows.append({
            **point.coords,
            "completed_gbps": report.completed_gbps,
            "p50_us": report.p50_us,
            "p99_us": report.p99_us,
            "spilled": report.spilled,
            "shed": report.shed,
        })
    return result


@register("service_scaling")
def run(quick: bool = True) -> ExperimentResult:
    if quick:
        return tabulate(run_sweep_spec(build_sweep(duration_ns=1.5e6)))
    return tabulate(run_sweep_spec(build_sweep(
        loads_gbps=(4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0),
        mixes=("mixed", "asic"), duration_ns=10e6)))
