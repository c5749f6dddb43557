"""Cluster-API tests: spec serialization, session façade, clients.

Unit scenarios wrap stub devices in a :class:`Cluster` built from
parts (deterministic, wall-clock free); one integration class builds a
small real cluster from a spec to exercise device construction and
calibration caching.
"""

import json
import math

import pytest

from service_stubs import StubDevice, flat_model, stub_cluster
from repro.cluster import (
    AdmissionSpec,
    Cluster,
    ClusterSpec,
    DEVICE_KINDS,
    DeviceSpec,
    FleetSpec,
    ReconfigEvent,
    SloShare,
    SloSpec,
    StoreSpec,
    build_device,
)
from repro.cluster.session import _DEVICE_BUILDERS
from repro.errors import ClusterError, ClusterSpecError
from repro.federation import (
    Federation,
    FederationMemberSpec,
    FederationSpec,
    LinkSpec,
)
from repro.service import (
    FleetDevice,
    OpenLoopStream,
    SchedulerCore,
    SloClass,
)
from repro.sim.engine import Simulator
from repro.store import BlockCache, CompressedBlockStore
from repro.workloads import MixedStream


def rich_spec() -> ClusterSpec:
    """A spec exercising every section, for round-trip checks."""
    return ClusterSpec(
        fleet=FleetSpec(
            devices=(DeviceSpec("cpu", algorithm="snappy", threads=8),
                     DeviceSpec("qat8970"),
                     DeviceSpec("dpzip", name="dpzip0"),
                     DeviceSpec("dpzip", name="dpzip1")),
            spill=DeviceSpec("cpu", algorithm="lz4", threads=4),
            batch_size=2,
            batch_timeout_ns=None,
            queue_limit=12,
            fair_share_tenants=4,
            ops=("compress", "decompress"),
        ),
        policy="deadline",
        admission=AdmissionSpec(spill_threshold=0.6, shed_threshold=0.9,
                                ewma_alpha=0.25),
        pending_limit=32,
        slo_mix=(
            SloShare(SloSpec("interactive", tier=0, deadline_ns=150e3),
                     weight=0.3),
            SloShare(SloSpec("batch", tier=2, deadline_ns=math.inf),
                     weight=0.7),
        ),
        store=StoreSpec(block_bytes=4096, segment_bytes=16384,
                        cache_blocks=64, ghost_blocks=128),
        power_budget_w=40.0,
        reconfig=(
            ReconfigEvent(at_ns=1e6, action="brown-out",
                          device="qat8970", speed_factor=0.2),
            ReconfigEvent(at_ns=2e6, action="unplug",
                          device="dpzip1", drain=False),
            ReconfigEvent(at_ns=3e6, action="power-cap", budget_w=20.0),
        ),
    )


class TestSpecRoundTrip:
    def test_spec_dict_json_round_trip_is_identity(self):
        spec = rich_spec()
        as_json = json.dumps(spec.to_dict())
        assert ClusterSpec.from_dict(json.loads(as_json)) == spec
        assert ClusterSpec.from_json(spec.to_json()) == spec

    def test_infinite_deadline_survives_json(self):
        spec = rich_spec()
        rebuilt = ClusterSpec.from_json(spec.to_json())
        assert math.isinf(rebuilt.slo_mix[1].slo.deadline_ns)

    def test_minimal_spec_round_trips_with_defaults(self):
        spec = ClusterSpec(fleet=FleetSpec(devices=(DeviceSpec("dpzip"),)))
        assert ClusterSpec.from_json(spec.to_json()) == spec
        assert spec.admission is None and spec.store is None

    def test_unknown_top_level_key_raises(self):
        data = rich_spec().to_dict()
        data["turbo_mode"] = True
        with pytest.raises(ClusterSpecError, match="turbo_mode"):
            ClusterSpec.from_dict(data)

    def test_unknown_nested_key_raises(self):
        data = rich_spec().to_dict()
        data["fleet"]["devices"][0]["frequency_thz"] = 9000
        with pytest.raises(ClusterSpecError, match="frequency_thz"):
            ClusterSpec.from_dict(data)
        data = rich_spec().to_dict()
        data["store"]["blocks"] = 512
        with pytest.raises(ClusterSpecError, match="blocks"):
            ClusterSpec.from_dict(data)

    def test_slo_shorthand_names_standard_class(self):
        spec = StoreSpec.from_dict({"read_slo": "interactive"})
        assert spec.read_slo.tier == 0
        assert spec.read_slo.to_class() == SloClass(
            "interactive", tier=0, deadline_ns=200_000.0)

    def test_invalid_json_raises_spec_error(self):
        with pytest.raises(ClusterSpecError, match="JSON"):
            ClusterSpec.from_json("{not json")


class TestSpecValidation:
    def test_unknown_device_kind_rejected(self):
        with pytest.raises(ClusterSpecError, match="fpga"):
            DeviceSpec("fpga")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ClusterSpecError, match="warp-speed"):
            ClusterSpec(fleet=FleetSpec(devices=(DeviceSpec("dpzip"),)),
                        policy="warp-speed")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ClusterSpecError, match="at least one"):
            FleetSpec(devices=())

    def test_unknown_op_rejected(self):
        with pytest.raises(ClusterSpecError, match="encrypt"):
            FleetSpec(devices=(DeviceSpec("dpzip"),), ops=("encrypt",))

    def test_reconfig_event_validation(self):
        with pytest.raises(ClusterSpecError, match="target device"):
            ReconfigEvent(at_ns=0.0, action="brown-out")
        with pytest.raises(ClusterSpecError, match="budget_w"):
            ReconfigEvent(at_ns=0.0, action="power-cap")
        with pytest.raises(ClusterSpecError, match="action"):
            ReconfigEvent(at_ns=0.0, action="defenestrate", device="x")

    def test_builder_registry_covers_every_kind(self):
        assert set(_DEVICE_BUILDERS) == set(DEVICE_KINDS)

    def test_build_device_honors_name_override(self):
        device = build_device(DeviceSpec("dpzip", name="dpzip-east"))
        assert device.name == "dpzip-east"


class TestClosedLoopClient:
    def test_inflight_never_exceeds_window(self):
        cluster = stub_cluster(per_byte=(0.2,), queue_limit=64)
        client = cluster.closed_loop(window=5, duration_ns=1e5,
                                     request_sizes=(1000,), seed=3)
        result = cluster.run()
        assert 1 <= client.peak_inflight <= 5
        assert client.inflight == 0
        assert client.completed + client.failed == client.submitted
        assert result.client("closed-loop")["peak_inflight"] <= 5

    def test_window_one_serializes_requests(self):
        cluster = stub_cluster(per_byte=(1.0,), queue_limit=64)
        client = cluster.closed_loop(window=1, duration_ns=5e4,
                                     request_sizes=(1000,), seed=3)
        cluster.run()
        assert client.peak_inflight == 1
        assert client.failed == 0

    def test_think_time_throttles_submission(self):
        fast = stub_cluster(per_byte=(0.001,), queue_limit=64)
        eager = fast.closed_loop(window=1, duration_ns=1e5,
                                 request_sizes=(1000,), seed=3)
        fast.run()
        slow = stub_cluster(per_byte=(0.001,), queue_limit=64)
        lazy = slow.closed_loop(window=1, duration_ns=1e5, think_ns=5e3,
                                request_sizes=(1000,), seed=3)
        slow.run()
        assert lazy.submitted < eager.submitted
        # ~20 think gaps of 5 us fit in 100 us.
        assert lazy.submitted <= 21

    def test_synchronous_shed_does_not_stall_the_window(self):
        # A shed fires on_drop inside submit(); the connection must
        # resume and keep issuing requests instead of deadlocking.
        cluster = stub_cluster(per_byte=(1.0,), queue_limit=1,
                               policy="static")
        client = cluster.closed_loop(window=4, duration_ns=1e5,
                                     request_sizes=(1000,), seed=3)
        cluster.run()
        assert client.failed > 0
        assert client.completed > 0
        assert client.inflight == 0

    def test_per_client_goodput_reported_in_result(self):
        cluster = stub_cluster(per_byte=(0.01,), queue_limit=64)
        cluster.closed_loop(window=2, duration_ns=1e5,
                            request_sizes=(1000,), seed=1, name="a")
        cluster.closed_loop(window=2, duration_ns=1e5,
                            request_sizes=(1000,), seed=2, name="b")
        result = cluster.run()
        assert {row["client"] for row in result.clients} == {"a", "b"}
        for row in result.clients:
            assert row["mode"] == "closed-loop"
            assert row["goodput_gbps"] > 0
        total = sum(row["completed"] for row in result.clients)
        assert total == result.service.completed

    def test_validation(self):
        cluster = stub_cluster()
        with pytest.raises(ClusterError, match="window"):
            cluster.closed_loop(window=0, duration_ns=1e5)
        with pytest.raises(ClusterError, match="think"):
            cluster.closed_loop(window=1, duration_ns=1e5, think_ns=-1.0)
        with pytest.raises(ClusterError, match="duration"):
            cluster.closed_loop(window=1, duration_ns=0.0)


class TestClusterSession:
    def test_open_and_closed_loop_share_one_fleet(self):
        cluster = stub_cluster(per_byte=(0.01, 0.02), queue_limit=64)
        open_client = cluster.open_loop(
            OpenLoopStream(offered_gbps=1.0, duration_ns=1e5, seed=5),
            name="open")
        closed_client = cluster.closed_loop(window=2, duration_ns=1e5,
                                            request_sizes=(1000,),
                                            seed=7, name="closed")
        result = cluster.run()
        assert open_client.completed > 0
        assert closed_client.completed > 0
        assert (result.service.completed
                == open_client.completed + closed_client.completed)
        modes = {row["client"]: row["mode"] for row in result.clients}
        assert modes == {"open": "open-loop", "closed": "closed-loop"}

    def test_run_requires_a_client(self):
        with pytest.raises(ClusterError, match="no clients"):
            stub_cluster().run()

    def test_run_is_single_shot(self):
        cluster = stub_cluster()
        cluster.closed_loop(window=1, duration_ns=1e4,
                            request_sizes=(1000,))
        cluster.run()
        with pytest.raises(ClusterError, match="already ran"):
            cluster.run()
        with pytest.raises(ClusterError, match="already ran"):
            cluster.closed_loop(window=1, duration_ns=1e4)

    def test_duplicate_client_names_rejected(self):
        cluster = stub_cluster()
        cluster.closed_loop(window=1, duration_ns=1e4, name="same")
        with pytest.raises(ClusterError, match="same"):
            cluster.closed_loop(window=1, duration_ns=1e4, name="same")

    def test_store_client_requires_store_tier(self):
        with pytest.raises(ClusterError, match="store"):
            stub_cluster().store_client(
                MixedStream(offered_gbps=1.0, duration_ns=1e5))

    def test_store_client_serves_and_reports(self):
        sim = Simulator()
        fleet = [FleetDevice(
            sim, StubDevice(name="dev0"),
            {"compress": flat_model(0.02), "decompress": flat_model(0.01)},
            queue_limit=16, batch_size=1)]
        service = SchedulerCore(sim, fleet, "cost-model")
        store = CompressedBlockStore(
            sim, service, BlockCache(8), block_bytes=1000,
            hit_overhead_ns=100.0, hit_per_byte_ns=0.0,
            media_overhead_ns=0.0, media_per_byte_ns=0.0)
        cluster = Cluster(sim, service, store=store)
        stream = MixedStream(offered_gbps=0.5, duration_ns=2e5,
                             read_fraction=0.7, blocks=32,
                             block_bytes=1000, seed=9)
        client = cluster.store_client(stream)
        result = cluster.run()
        assert client.reads + client.writes == client.submitted
        assert client.submitted > 0
        assert result.store is not None
        assert result.store.reads == client.reads
        # The unified row merges service and store columns.
        row = result.row()
        assert "completed_gbps" in row and "read_gbps" in row
        assert "hit_rate" in row

    def test_spec_slo_mix_is_default_for_kwarg_streams(self):
        spec_mix = (SloShare(SloSpec("gold", tier=0, deadline_ns=1e9),
                             weight=1.0),)
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dev0"),
                             flat_model(0.01), queue_limit=16,
                             batch_size=1)]
        service = SchedulerCore(sim, fleet, "cost-model")
        spec = ClusterSpec(fleet=FleetSpec(devices=(DeviceSpec("dpzip"),)),
                           slo_mix=spec_mix)
        cluster = Cluster(sim, service, spec=spec)
        cluster.open_loop(offered_gbps=1.0, duration_ns=1e5, seed=5)
        result = cluster.run()
        assert [row["slo"] for row in result.slo_breakdown] == ["gold"]

    def test_closed_loop_inherits_single_entry_spec_mix(self):
        spec_mix = (SloShare(SloSpec("gold", tier=0, deadline_ns=1e9),
                             weight=1.0),)
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dev0"),
                             flat_model(0.01), queue_limit=16,
                             batch_size=1)]
        service = SchedulerCore(sim, fleet, "cost-model")
        spec = ClusterSpec(fleet=FleetSpec(devices=(DeviceSpec("dpzip"),)),
                           slo_mix=spec_mix)
        cluster = Cluster(sim, service, spec=spec)
        client = cluster.closed_loop(window=1, duration_ns=1e4,
                                     request_sizes=(1000,))
        cluster.run()
        assert client.slo.name == "gold"


def stub_store_cluster(spec=None, cache_blocks=8, block_bytes=1000):
    """Store-backed cluster over one stub device, built from parts."""
    sim = Simulator()
    fleet = [FleetDevice(
        sim, StubDevice(name="dev0"),
        {"compress": flat_model(0.02), "decompress": flat_model(0.01)},
        queue_limit=16, batch_size=1)]
    service = SchedulerCore(sim, fleet, "cost-model")
    store = CompressedBlockStore(
        sim, service, BlockCache(cache_blocks), block_bytes=block_bytes,
        hit_overhead_ns=100.0, hit_per_byte_ns=0.0,
        media_overhead_ns=0.0, media_per_byte_ns=0.0)
    return Cluster(sim, service, store=store, spec=spec)


class TestClosedLoopStoreClient:
    def _stream(self, **kwargs):
        kwargs.setdefault("offered_gbps", 0.5)
        kwargs.setdefault("duration_ns", 2e5)
        kwargs.setdefault("read_fraction", 0.7)
        kwargs.setdefault("blocks", 32)
        kwargs.setdefault("block_bytes", 1000)
        kwargs.setdefault("seed", 9)
        return MixedStream(**kwargs)

    def test_windowed_client_bounds_inflight_and_completes(self):
        cluster = stub_store_cluster()
        client = cluster.store_client(self._stream(), window=3)
        result = cluster.run()
        assert client.mode == "store-closed"
        assert 1 <= client.peak_inflight <= 3
        assert client.inflight == 0
        assert client.completed > 0
        assert client.completed + client.failed == client.submitted
        assert client.reads + client.writes == client.submitted
        row = result.client("store")
        assert row["window"] == 3
        assert row["peak_inflight"] <= 3
        assert row["goodput_gbps"] > 0

    def test_coalesced_reads_release_their_waiters(self):
        # One hot block, no cache: concurrent connections coalesce on
        # the same in-flight decompress and must all complete.
        cluster = stub_store_cluster(cache_blocks=0)
        client = cluster.store_client(
            self._stream(blocks=1, read_fraction=1.0), window=4)
        cluster.run()
        assert cluster.store.metrics.coalesced_reads > 0
        assert client.completed == client.submitted
        assert client.inflight == 0

    def test_think_time_throttles_submission(self):
        eager = stub_store_cluster()
        fast = eager.store_client(self._stream(), window=1)
        eager.run()
        lazy = stub_store_cluster()
        slow = lazy.store_client(self._stream(), window=1,
                                 think_ns=10_000.0)
        lazy.run()
        assert slow.submitted < fast.submitted

    def test_store_spec_client_window_is_the_default(self):
        spec = ClusterSpec(
            fleet=FleetSpec(devices=(DeviceSpec("dpzip"),)),
            store=StoreSpec(block_bytes=1000, client_window=2,
                            client_think_ns=500.0),
        )
        cluster = stub_store_cluster(spec=spec)
        client = cluster.store_client(self._stream())
        assert client.window == 2
        assert client.think_ns == 500.0
        # An explicit argument still wins over the spec default.
        other = stub_store_cluster(spec=spec)
        explicit = other.store_client(self._stream(), window=5)
        assert explicit.window == 5

    def test_windowed_validation(self):
        cluster = stub_store_cluster()
        with pytest.raises(ClusterError, match="window"):
            cluster.store_client(self._stream(), window=0)
        with pytest.raises(ClusterError, match="think"):
            cluster.store_client(self._stream(), window=1, think_ns=-1.0)

    def test_store_spec_rejects_bad_client_fields(self):
        with pytest.raises(ClusterSpecError, match="client window"):
            StoreSpec(client_window=0)
        with pytest.raises(ClusterSpecError, match="think"):
            StoreSpec(client_think_ns=-1.0)


class TestReconfigSchedule:
    def test_brownout_event_applies_at_time(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dev0"),
                             flat_model(0.01), queue_limit=16,
                             batch_size=1)]
        service = SchedulerCore(sim, fleet, "cost-model")
        spec = ClusterSpec(
            fleet=FleetSpec(devices=(DeviceSpec("dpzip"),)),
            reconfig=(ReconfigEvent(at_ns=5e4, action="brown-out",
                                    device="dev0", speed_factor=0.5),),
        )
        cluster = Cluster(sim, service, spec=spec)
        cluster._arm_reconfiguration(spec)
        cluster.closed_loop(window=1, duration_ns=1e5,
                            request_sizes=(1000,))
        cluster.run()
        assert fleet[0].speed_factor == 0.5
        assert [event[1] for event in cluster.controller.events] \
            == ["brown-out"]


class TestFromSpecIntegration:
    """One small real-device cluster end to end (calibration cached)."""

    SPEC = ClusterSpec(
        fleet=FleetSpec(
            devices=(DeviceSpec("cpu", algorithm="snappy", threads=4),),
        ),
    )

    def test_open_loop_run_produces_unified_result(self):
        cluster = Cluster.from_spec(self.SPEC)
        cluster.open_loop(offered_gbps=2.0, duration_ns=2e5, tenants=2,
                          seed=3)
        result = cluster.run()
        assert result.service.completed > 0
        assert result.row()["completed_gbps"] > 0
        assert result.clients[0]["mode"] == "open-loop"

    def test_service_alias_resolves_to_the_scheduler(self):
        # perfbench's _device_layers reads cluster.service.scheduler,
        # for a standalone cluster and for every federation member.
        cluster = Cluster.from_spec(self.SPEC)
        assert cluster.service.scheduler is cluster.scheduler
        link = LinkSpec(latency_ns=1_000.0, bandwidth_gbps=12.5)
        federation = Federation.from_spec(FederationSpec(members=tuple(
            FederationMemberSpec(name=name, cluster=self.SPEC, link=link)
            for name in ("alpha", "beta"))))
        assert len(federation.clusters) == 2
        for _, member in federation.clusters:
            assert member.service.scheduler is member.scheduler

    def test_calibration_cache_reuses_models(self):
        from repro.cluster.session import _MODEL_CACHE, calibrated_models
        spec = DeviceSpec("cpu", algorithm="snappy", threads=4)
        first = calibrated_models(spec, build_device(spec), ("compress",))
        second = calibrated_models(spec, build_device(spec), ("compress",))
        assert first["compress"] is second["compress"]
        assert (spec.cache_key(), "compress") in _MODEL_CACHE


class TestReviewRegressions:
    def test_second_store_client_rejected(self):
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dev0"),
                             {"compress": flat_model(0.02),
                              "decompress": flat_model(0.01)},
                             queue_limit=16, batch_size=1)]
        service = SchedulerCore(sim, fleet, "cost-model")
        store = CompressedBlockStore(sim, service, BlockCache(8),
                                     block_bytes=1000)
        cluster = Cluster(sim, service, store=store)
        stream = MixedStream(offered_gbps=0.5, duration_ns=1e5,
                             blocks=16, block_bytes=1000, seed=9)
        cluster.store_client(stream)
        with pytest.raises(ClusterError, match="already has a client"):
            cluster.store_client(stream, name="store2")

    def test_store_client_block_size_mismatch_is_store_error(self):
        from repro.errors import StoreError
        sim = Simulator()
        fleet = [FleetDevice(sim, StubDevice(name="dev0"),
                             {"compress": flat_model(0.02),
                              "decompress": flat_model(0.01)},
                             queue_limit=16, batch_size=1)]
        service = SchedulerCore(sim, fleet, "cost-model")
        store = CompressedBlockStore(sim, service, BlockCache(8),
                                     block_bytes=4096)
        cluster = Cluster(sim, service, store=store)
        with pytest.raises(StoreError, match="block size"):
            cluster.store_client(MixedStream(offered_gbps=0.5,
                                             duration_ns=1e5,
                                             block_bytes=8192))

    def test_cli_sweeps_report_spec_errors_cleanly(self, capsys, tmp_path):
        # Spec validation errors raised inside the cluster-based sweeps
        # must come out as clean exit-2 messages, not tracebacks.
        from repro.experiments import slo_degradation, store_scaling
        from repro.experiments.cli import main
        store_spec = tmp_path / "store.json"
        store_spec.write_text(
            store_scaling.build_sweep(cache_blocks=(64, -1)).to_json())
        assert main(["store", "--spec", str(store_spec)]) == 2
        assert "cache size" in capsys.readouterr().err
        document = slo_degradation.build_sweep().to_dict()
        document["cluster"]["fleet"]["queue_limit"] = 0
        slo_spec = tmp_path / "slo.json"
        slo_spec.write_text(json.dumps(document))
        assert main(["slo", "--spec", str(slo_spec)]) == 2
        assert "queue limit" in capsys.readouterr().err
