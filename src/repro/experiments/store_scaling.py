"""Block-store sweep: read-fraction x cache-size x dispatch policy.

Extends the compress-only ``service_scaling`` sweep to the serving
regime storage actually runs in — read-dominated mixed traffic over a
compressed block store.  The sweep shows (a) the decompressed-block
cache converts hot reads into DRAM copies, measurably cutting read p99
by keeping the fleet out of its queueing regime; (b) ghost-list hit
rates flag when the next doubling of cache capacity still pays; and
(c) decompress traffic lands on a different placement mix than
compress traffic under cost-model dispatch (the per-op calibrated
budgets disagree about the fastest device — Figure 12's two panels).

The whole experiment is one declarative :class:`~repro.sweep.SweepSpec`
(:func:`build_sweep`) with a ``store`` section and mixed GET/PUT
workload, executed through :class:`~repro.sweep.SweepRunner` and
tabulated by :func:`tabulate`.  ``repro-experiment store`` runs the
same spec on the sweep driver.
"""

from __future__ import annotations

from repro.cluster import ClusterSpec, FleetSpec, StoreSpec
from repro.errors import ServiceError
from repro.experiments.common import ExperimentResult, register
from repro.experiments.service_scaling import MIXES, SPILL
from repro.store import StoreReport
from repro.sweep import SweepAxis, SweepResult, SweepSpec, WorkloadSpec, \
    run_sweep_spec

DEFAULT_POLICIES = ("round-robin", "cost-model")


def placement_shift(report: StoreReport) -> float:
    """Largest per-placement share gap between decompress and compress.

    0.0 means both ops landed on the fleet identically; larger values
    mean the read path picked devices the write path did not — the
    "placement choice shifts with op mix" acceptance signal.
    """
    if report.service is None:
        return 0.0
    decomp = report.service.placement_shares("decompress")
    comp = report.service.placement_shares("compress")
    placements = set(decomp) | set(comp)
    if not placements:
        return 0.0
    return max(abs(decomp.get(p, 0.0) - comp.get(p, 0.0))
               for p in placements)


def build_sweep(read_fractions: tuple[float, ...] = (0.5, 0.9),
                cache_blocks: tuple[int, ...] = (0, 64, 256),
                policies: tuple[str, ...] = DEFAULT_POLICIES,
                offered_gbps: float = 36.0,
                duration_ns: float = 4e6,
                blocks: int = 512,
                block_bytes: int = 65536,
                tenants: int = 4,
                zipf_theta: float = 0.99,
                seed: int = 31,
                spill: bool = True) -> SweepSpec:
    """The full cross product as one declarative sweep description."""
    if offered_gbps <= 0:
        raise ServiceError(f"offered load must be > 0, got {offered_gbps}")
    return SweepSpec(
        cluster=ClusterSpec(
            fleet=FleetSpec(devices=MIXES["mixed"],
                            spill=SPILL if spill else None,
                            ops=("compress", "decompress")),
            store=StoreSpec(block_bytes=block_bytes),
        ),
        workload=WorkloadSpec(mode="store",
                              offered_gbps=offered_gbps,
                              duration_ns=duration_ns,
                              tenants=tenants,
                              blocks=blocks,
                              zipf_theta=zipf_theta),
        axes=(
            SweepAxis.over("read_frac", "workload.read_fraction",
                           read_fractions),
            SweepAxis.over("cache_blocks", "store.cache_blocks",
                           cache_blocks),
            SweepAxis.over("policy", "policy", policies),
        ),
        root_seed=seed,
    )


def tabulate(sweep: SweepResult) -> ExperimentResult:
    """Per-run store reports as the experiment's table."""
    spec = sweep.spec
    block_bytes = spec.cluster.store.block_bytes
    result = ExperimentResult(
        experiment_id="store_scaling",
        title="Block store: read latency by read mix, cache size and policy",
        notes=f"open-loop Poisson GET/PUT at "
              f"{spec.workload.offered_gbps:g} GB/s over "
              f"{spec.workload.blocks} x {block_bytes // 1024} KiB "
              f"Zipfian blocks; "
              + ("spill device: cpu-snappy"
                 if spec.cluster.fleet.spill is not None
                 else "no spill device"),
    )
    for point, run in sweep:
        report = run.store
        result.rows.append({
            **point.coords,
            "hit_rate": report.hit_rate,
            "ghost_rate": report.ghost_hit_rate,
            "read_gbps": report.read_gbps,
            "read_p50_us": report.read_p50_us,
            "read_p99_us": report.read_p99_us,
            "write_p99_us": report.write_p99_us,
            "placement_shift": placement_shift(report),
            "shed": (report.service.shed
                     if report.service is not None else 0),
        })
    return result


@register("store_scaling")
def run(quick: bool = True) -> ExperimentResult:
    if quick:
        return tabulate(run_sweep_spec(build_sweep()))
    return tabulate(run_sweep_spec(build_sweep(
        read_fractions=(0.1, 0.3, 0.5, 0.7, 0.9),
        cache_blocks=(0, 32, 64, 128, 256, 512),
        policies=("static", "round-robin", "shortest-queue", "cost-model"),
        duration_ns=10e6)))
