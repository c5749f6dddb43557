"""Byte-identity guards for the simulator hot-path rewrite.

The event kernel, the scheduler's cost-table fast path and the stats
vectorization are all rewrites of the timing source every subsystem
shares, so their correctness bar is not "close" but **identical**:

* the golden spec+seed run must produce byte-for-byte the same
  ``RunResult`` rows and exported Chrome trace as the pre-rewrite
  kernel (the files under ``tests/golden/`` were captured before the
  rewrite and are never regenerated casually — a diff here means the
  event interleaving or a float expression changed);
* a :class:`~repro.service.model.CostTable` must predict bit-identical
  ``ModeledCost`` values to the live model it wraps, for any size and
  ratio.

Regenerating the goldens is a deliberate act (a *semantic* change to
the simulation, not an optimisation): rerun the capture below against
the old kernel and commit the new files with the change that needs
them.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cluster import Cluster, TelemetrySpec, default_cluster_spec
from repro.errors import ServiceError
from repro.service.model import CostTable, DeviceCostModel, RatioAnchor

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The golden scenario: default mixed fleet, full telemetry, open-loop
#: 36 GB/s for 0.5 ms virtual, 4 tenants, seed 5 (a short cousin of the
#: trajectory benchmark's reference scenario).
GOLDEN_STREAM = dict(offered_gbps=36.0, duration_ns=5e5, tenants=4,
                     seed=5)


def _golden_run():
    spec = dataclasses.replace(
        default_cluster_spec(),
        telemetry=TelemetrySpec(trace=True, metrics_interval_ns=1e5))
    cluster = Cluster.from_spec(spec)
    cluster.open_loop(**GOLDEN_STREAM)
    return cluster.run()


def _result_document(result) -> dict:
    service = result.service
    return {
        "row": result.row(),
        "clients": result.clients,
        "slo_breakdown": service.slo_breakdown,
        "breakdown": service.breakdown,
        "op_breakdown": service.op_breakdown,
        "per_device": service.per_device,
        "metrics_rows": result.telemetry.metrics_rows,
    }


class TestGoldenRun:
    def test_run_result_rows_byte_identical(self):
        result = _golden_run()
        rows = (json.dumps(_result_document(result), indent=2,
                           sort_keys=True) + "\n").encode()
        assert rows == (GOLDEN_DIR / "run_result.json").read_bytes(), (
            "golden RunResult rows changed: the kernel/scheduler/stats "
            "rewrite altered simulation semantics (event interleaving "
            "or float arithmetic), which a performance PR must not do"
        )

    def test_exported_trace_byte_identical(self, tmp_path):
        result = _golden_run()
        trace_path = tmp_path / "trace.json"
        result.export_trace(str(trace_path))
        assert trace_path.read_bytes() == \
            (GOLDEN_DIR / "trace.json").read_bytes(), (
                "golden trace export changed: span timestamps or "
                "ordering drifted across the kernel rewrite"
            )


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _traced(spec):
    return dataclasses.replace(
        spec, telemetry=TelemetrySpec(trace=True, metrics_interval_ns=1e5))


def _scenario_store_client(trace_path):
    cluster = Cluster.from_spec(_traced(default_cluster_spec(store=True)))
    cluster.store_client(offered_gbps=36.0, duration_ns=5e5, seed=5)
    result = cluster.run()
    result.export_trace(str(trace_path))
    store = result.store
    return {
        **_result_document(result),
        "store": {
            "reads": store.reads, "writes": store.writes,
            "coalesced_reads": store.coalesced_reads,
            "hit_rate": store.hit_rate,
            "read_p99_us": store.read_p99_us,
            "write_p99_us": store.write_p99_us,
            "physical_bytes": store.physical_bytes,
        },
    }


def _scenario_federation(trace_path):
    from repro.federation import Federation, FederationSpec

    spec = FederationSpec.from_json(
        (EXAMPLES_DIR / "federation.json").read_text())
    result = Federation.from_spec(spec).run()
    result.run.export_trace(str(trace_path))
    return {
        "row": result.row(),
        "clients": result.run.clients,
        "member_rows": result.member_rows(),
        "router_rows": result.router_rows(),
        "metrics_rows": result.run.telemetry.metrics_rows,
    }


def _scenario_batched_fleet(trace_path):
    base = default_cluster_spec()
    # Eight-wide batches with a short flush timer at moderate load:
    # batches flush both on size and on the timer, every member of a
    # batch enters the device at the same instant, and per-VF fair
    # arbitration serves four tenants.
    spec = dataclasses.replace(base, fleet=dataclasses.replace(
        base.fleet, batch_size=8, batch_timeout_ns=5_000.0,
        fair_share_tenants=4))
    cluster = Cluster.from_spec(_traced(spec))
    cluster.open_loop(offered_gbps=16.0, duration_ns=5e5, tenants=4,
                      seed=9)
    cluster.closed_loop(window=4, duration_ns=5e5, think_ns=2_000.0,
                        seed=9)
    result = cluster.run()
    result.export_trace(str(trace_path))
    return _result_document(result)


def _tied_timestamps_run(submit_ns, follow_ups):
    from service_stubs import StubDevice, flat_model
    from repro.service.fleet import FleetDevice
    from repro.service.request import OffloadRequest
    from repro.sim.engine import Simulator

    sim = Simulator()
    # Doorbell, pre, post and engine times are all multiples of 10 ns,
    # like the arrival gaps, so most heap entries share a timestamp.
    model = flat_model(engine_per_byte_ns=0.01, submit_ns=submit_ns,
                       pre_ns=20.0, post_ns=20.0)
    devices = [
        FleetDevice(sim, StubDevice(name=name, engines=2), model,
                    batch_size=3, batch_timeout_ns=30.0,
                    fair_share_tenants=fair)
        for name, fair in (("fifo", None), ("fair", 3))
    ]
    rng = random.Random(13)
    completions = []

    def submit(trace_id):
        device = devices[rng.randrange(2)]
        if device.can_accept():
            device.enqueue(OffloadRequest(
                tenant=rng.randrange(3), nbytes=1000 * rng.randrange(1, 4),
                ratio=1.0, trace_id=trace_id), on_complete)

    def on_complete(request, device, cost):
        completions.append([sim.now, device.name, request.trace_id])
        # Every other completion may submit a follow-up, so the order of
        # same-timestamp completions feeds back into later batches.
        if (follow_ups and request.trace_id < 1000
                and request.trace_id % 2 == 0):
            submit(request.trace_id + 1000)

    def arrivals():
        for trace_id in range(600):
            yield sim.timeout(10.0 * rng.randrange(4))
            submit(trace_id)

    sim.spawn(arrivals())
    sim.run()
    for device in devices:
        device.batcher.flush_now()
    sim.run()
    return completions


def _scenario_sweep_rows(trace_path):
    from repro.sweep import run_sweep_spec
    from repro.sweep.spec import example_sweep_spec

    return {"rows": run_sweep_spec(example_sweep_spec()).rows()}


def _scenario_tied_timestamps(trace_path):
    return {f"submit_{submit_ns:g}ns_follow_ups_{follow_ups}":
            _tied_timestamps_run(submit_ns, follow_ups)
            for submit_ns, follow_ups in ((10.0, False), (10.0, True),
                                          (20.0, True))}


#: Extra golden scenarios, one document each under ``tests/golden/``:
#: the run's rows plus the sha256 of its exported trace, if it has one.
#: Together they cover the block-store GET/PUT path, the checked-in
#: federation spec, a batch-heavy fleet whose batch members (and a
#: closed-loop client) share timestamps, a stub fleet on integer
#: costs where same-timestamp work is the rule, so the order of
#: zero-delay hops decides the completion order, and the example
#: sweep's rows, whose ``spec_hash`` column pins the spec encoder.
SCENARIOS = {
    "store_client": _scenario_store_client,
    "federation": _scenario_federation,
    "batched_fleet": _scenario_batched_fleet,
    "tied_timestamps": _scenario_tied_timestamps,
    "sweep_rows": _scenario_sweep_rows,
}


def _scenario_document(name, tmp_path):
    trace_path = tmp_path / f"{name}_trace.json"
    document = SCENARIOS[name](trace_path)
    if trace_path.exists():
        document["trace_sha256"] = hashlib.sha256(
            trace_path.read_bytes()).hexdigest()
    return (json.dumps(document, indent=2, sort_keys=True)
            + "\n").encode()


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_byte_identical(name, tmp_path):
    got = _scenario_document(name, tmp_path)
    assert got == (GOLDEN_DIR / f"{name}.json").read_bytes(), (
        f"golden scenario {name!r} changed: rows or trace drifted, so "
        f"the event interleaving or a float expression changed"
    )


class TestCostTable:
    def _model(self):
        return DeviceCostModel(
            anchors=[
                RatioAnchor(ratio=0.3, overhead_ns=120.0, per_byte_ns=0.7),
                RatioAnchor(ratio=0.6, overhead_ns=260.0, per_byte_ns=1.3),
                RatioAnchor(ratio=1.0, overhead_ns=410.0, per_byte_ns=2.9),
            ],
            submit_ns=35.0,
            pre_overhead_ns=11.0, pre_per_byte_ns=0.002,
            post_overhead_ns=7.0, post_per_byte_ns=0.001,
        )

    def test_bit_identical_to_live_model(self):
        model = self._model()
        table = CostTable(model)
        rng = random.Random(3)
        cases = [(rng.randrange(1, 1 << 20), rng.uniform(0.0, 1.0))
                 for _ in range(300)]
        # Anchor boundaries and the clamped extremes, at a repeated
        # size so the row-cache hit path is exercised too.
        cases += [(16384, ratio)
                  for ratio in (0.0, 0.3, 0.45, 0.6, 0.8, 1.0)] * 2
        for nbytes, ratio in cases:
            expected = model.predict(nbytes, ratio)
            got = table.predict(nbytes, ratio)
            assert (got.submit_ns, got.pre_ns,
                    got.engine_ns, got.post_ns) == \
                   (expected.submit_ns, expected.pre_ns,
                    expected.engine_ns, expected.post_ns)

    def test_single_anchor_model(self):
        model = DeviceCostModel(
            anchors=[RatioAnchor(ratio=1.0, overhead_ns=50.0,
                                 per_byte_ns=0.5)],
            submit_ns=10.0,
        )
        table = CostTable(model)
        for ratio in (0.0, 0.5, 1.0):
            assert table.predict(4096, ratio) == model.predict(4096, ratio)

    def test_engine_floor_preserved(self):
        # The live model clamps engine time to >= 1 ns; the table must
        # apply the same floor after interpolation.
        model = DeviceCostModel(
            anchors=[RatioAnchor(ratio=1.0, overhead_ns=0.0,
                                 per_byte_ns=0.0)])
        assert CostTable(model).predict(100, 1.0).engine_ns == 1.0

    def test_invalid_size_rejected(self):
        table = CostTable(self._model())
        with pytest.raises(ServiceError):
            table.predict(0)
        with pytest.raises(ServiceError):
            table.predict(-5)

    def test_cluster_attaches_shared_tables(self):
        spec = default_cluster_spec()
        cluster = Cluster.from_spec(spec)
        devices = list(cluster.scheduler.devices)
        if cluster.scheduler.spill_device is not None:
            devices.append(cluster.scheduler.spill_device)
        assert all(device.cost_tables for device in devices)
        for device in devices:
            for op, table in device.cost_tables.items():
                # The table wraps exactly the model that would price
                # this op, so fast path and fallback agree.
                assert table.model is device.model_for(op)

    def test_derated_device_falls_back_to_live_model(self):
        from service_stubs import StubDevice, flat_model
        from repro.service.fleet import FleetDevice
        from repro.service.request import OffloadRequest
        from repro.sim.engine import Simulator

        sim = Simulator()
        model = flat_model(engine_per_byte_ns=0.01)
        device = FleetDevice(sim, StubDevice(name="stub"), model)
        device.cost_tables = {"compress": CostTable(model)}
        request = OffloadRequest(tenant=0, nbytes=4096, ratio=1.0)
        fast = device._predict(request)
        device.set_speed(0.5)
        device._cost_cache = None
        slow_path = device._predict(request)
        # Same numbers either way (predict() is derate-independent);
        # the point is the derated path stays on the live model.
        assert fast == slow_path
