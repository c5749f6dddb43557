"""Offload-service scheduler microbenchmarks.

Tracks the wall-clock cost of the DES service loop itself — simulated
requests routed per second at a fixed offered load — so future PRs can
see scheduler/dispatch overhead regressions, plus the acceptance check
that cost-model dispatch sustains at least the best placement-oblivious
policy's throughput at equal offered load.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, default_cluster_spec
from repro.profiling import format_table
from repro.service import OpenLoopStream

#: Overload point for the mixed fleet (its ASIC+CPU capacity is lower),
#: so policy quality shows up as completed throughput, not just latency.
_LOAD_GBPS = 48.0
_DURATION_NS = 1.5e6
_SEED = 5


@pytest.fixture(scope="module")
def fleet():
    """Calibrate once: the cost models are cached process-wide, so
    every timed run reuses them."""
    fleet = default_cluster_spec(spill=False).fleet
    Cluster.from_spec(ClusterSpec(fleet=fleet))
    return fleet


def _stream():
    return OpenLoopStream(offered_gbps=_LOAD_GBPS, duration_ns=_DURATION_NS,
                          tenants=4, seed=_SEED)


def _serve(policy, fleet):
    cluster = Cluster.from_spec(ClusterSpec(fleet=fleet, policy=policy))
    cluster.open_loop(_stream())
    return cluster.run().service


def test_bench_service_loop_rate(benchmark, fleet):
    """Requests/sec the DES loop sustains under cost-model dispatch."""
    report = benchmark(_serve, "cost-model", fleet)
    assert report.completed > 0
    benchmark.extra_info["simulated_requests"] = report.offered
    benchmark.extra_info["completed_gbps"] = round(report.completed_gbps, 2)


def test_bench_policy_throughput(fleet, show_tables):
    """Cost-model >= best static policy at equal offered load."""
    reports = {
        policy: _serve(policy, fleet)
        for policy in ("static", "round-robin", "shortest-queue",
                       "cost-model")
    }
    if show_tables:
        print("\n" + format_table([r.row() for r in reports.values()],
                                  floatfmt=".2f"))
    best_static = max(reports["static"].completed_gbps,
                      reports["round-robin"].completed_gbps)
    assert reports["cost-model"].completed_gbps >= best_static
