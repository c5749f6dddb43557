"""Scheduler dispatch-overhead benchmarks: flat vs deadline-aware.

Tracks the wall-clock cost of the control plane itself — the same
offered load routed once through a flat policy (immediate
dispatch/spill/shed) and once through the SLO-aware
:class:`~repro.service.scheduler.SchedulerCore` (pending queue, EDF
within tier, shed-first eviction) — so future PRs can see dispatch
overhead regressions in either path.  Shallow device queues push
backpressure into the scheduler, making the deadline run exercise the
pending-queue machinery rather than bypassing it.
"""

import dataclasses

import pytest

from repro.cluster import Cluster, ClusterSpec, default_cluster_spec
from repro.experiments.slo_degradation import BATCH_4MS, INTERACTIVE_150US
from repro.profiling import format_table
from repro.service import OpenLoopStream

_LOAD_GBPS = 48.0
_DURATION_NS = 1.5e6
_SEED = 5
_QUEUE_LIMIT = 6


@pytest.fixture(scope="module")
def fleet():
    """Calibrate once: the cost models are cached process-wide, so
    every timed run reuses them."""
    fleet = dataclasses.replace(default_cluster_spec(spill=False).fleet,
                                queue_limit=_QUEUE_LIMIT)
    Cluster.from_spec(ClusterSpec(fleet=fleet))
    return fleet


def _stream():
    return OpenLoopStream(offered_gbps=_LOAD_GBPS, duration_ns=_DURATION_NS,
                          tenants=4, seed=_SEED,
                          slo_mix=((INTERACTIVE_150US, 0.3),
                                   (BATCH_4MS, 0.7)))


def _run(policy, fleet):
    cluster = Cluster.from_spec(ClusterSpec(fleet=fleet, policy=policy))
    cluster.open_loop(_stream())
    return cluster.run().service


def test_bench_dispatch_flat(benchmark, fleet):
    """Requests/sec the DES loop sustains under flat cost-model dispatch."""
    report = benchmark(_run, "cost-model", fleet)
    assert report.completed > 0
    benchmark.extra_info["simulated_requests"] = report.offered
    benchmark.extra_info["completed_gbps"] = round(report.completed_gbps, 2)


def test_bench_dispatch_deadline(benchmark, fleet):
    """Same load through the deadline-aware scheduler core."""
    report = benchmark(_run, "deadline", fleet)
    assert report.completed > 0
    benchmark.extra_info["simulated_requests"] = report.offered
    benchmark.extra_info["completed_gbps"] = round(report.completed_gbps, 2)
    benchmark.extra_info["fg_miss_rate"] = round(
        report.slo_miss_rate("interactive"), 3)


def test_bench_scheduler_quality_at_equal_load(fleet, show_tables):
    """The EDF core must buy miss-rate protection, not lose goodput."""
    reports = {policy: _run(policy, fleet)
               for policy in ("cost-model", "deadline")}
    if show_tables:
        rows = []
        for policy, report in reports.items():
            row = report.row()
            row["fg_miss_rate"] = report.slo_miss_rate("interactive")
            rows.append(row)
        print("\n" + format_table(rows, floatfmt=".2f"))
    flat, deadline = reports["cost-model"], reports["deadline"]
    assert deadline.completed_gbps >= 0.9 * flat.completed_gbps
    assert (deadline.slo_miss_rate("interactive")
            <= flat.slo_miss_rate("interactive"))
