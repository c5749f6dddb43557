"""Block-store microbenchmarks.

Tracks the wall-clock cost of the store's DES serving loop (mixed
GET/PUT operations routed per second), plus the two acceptance checks
of the store tier: the decompressed-block cache must measurably cut
read tail latency, and decompress traffic must land on a different
placement mix than compress traffic under cost-model dispatch.
"""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    StoreSpec,
    default_cluster_spec,
)
from repro.experiments.store_scaling import placement_shift
from repro.profiling import format_table
from repro.workloads import MixedStream

#: Past the ASIC tiers' combined decompress capacity at 80% reads, so
#: cache effectiveness shows up in queueing delay, not just hit cost.
_LOAD_GBPS = 36.0
_DURATION_NS = 4e6
_SEED = 11


@pytest.fixture(scope="module")
def fleet():
    """Calibrate per-op models once: they are cached process-wide, so
    every timed run reuses them."""
    fleet = default_cluster_spec(spill=False, store=True).fleet
    Cluster.from_spec(ClusterSpec(fleet=fleet))
    return fleet


def _stream(read_fraction=0.8):
    return MixedStream(offered_gbps=_LOAD_GBPS, duration_ns=_DURATION_NS,
                       read_fraction=read_fraction, blocks=512,
                       block_bytes=65536, tenants=4, seed=_SEED)


def _serve(fleet, cache_blocks):
    cluster = Cluster.from_spec(ClusterSpec(
        fleet=fleet, policy="cost-model",
        store=StoreSpec(block_bytes=65536, cache_blocks=cache_blocks)))
    cluster.store_client(_stream())
    return cluster.run().store


def test_bench_store_loop_rate(benchmark, fleet):
    """Operations/sec the store's DES loop sustains end to end."""
    report = benchmark(_serve, fleet, 256)
    assert report.reads > 0 and report.writes > 0
    benchmark.extra_info["simulated_ops"] = report.reads + report.writes
    benchmark.extra_info["read_gbps"] = round(report.read_gbps, 2)


def test_bench_cache_cuts_read_tail(fleet, show_tables):
    """Cache hits measurably reduce p99 read latency at equal load."""
    reports = {
        cache: _serve(fleet, cache)
        for cache in (0, 64, 256)
    }
    if show_tables:
        rows = [{"cache_blocks": cache, **report.row()}
                for cache, report in reports.items()]
        print("\n" + format_table(rows, floatfmt=".2f"))
    assert reports[64].read_p99_us < 0.8 * reports[0].read_p99_us
    assert reports[256].read_p99_us <= reports[64].read_p99_us


def test_bench_decompress_shifts_placement(fleet, show_tables):
    """The read path's placement mix differs from the write path's."""
    report = _serve(fleet, 64)
    assert report.service is not None
    if show_tables:
        print("\n" + format_table(report.service.op_breakdown,
                                  floatfmt=".1f"))
    assert placement_shift(report) > 0.05
