"""Shared stub devices, synthetic cost models and stub clusters for
service tests.

Timing comes entirely from :class:`DeviceCostModel` instances built
here, so scheduler/control scenarios are deterministic and wall-clock
free; the real calibrated fleet only appears in the integration tests
that need it, built from a spec.
"""

from repro.cluster import Cluster
from repro.hw.engine import CdpuDevice, Placement
from repro.service import (
    DeviceCostModel,
    FleetDevice,
    RatioAnchor,
    SchedulerCore,
    build_fleet,
)
from repro.sim.engine import Simulator
from repro.store import BlockCache, CompressedBlockStore


class StubDevice(CdpuDevice):
    """Placement/engine shell; timing comes from a synthetic model."""

    def __init__(self, name="stub", placement=Placement.PERIPHERAL,
                 engines=1, queue_depth=1024):
        self.name = name
        self.placement = placement
        self.engine_count = engines
        self.queue_depth = queue_depth


def flat_model(engine_per_byte_ns=0.01, submit_ns=0.0, pre_ns=0.0,
               post_ns=0.0):
    """Cost model with no size/ratio structure beyond a linear engine."""
    return DeviceCostModel(
        anchors=[RatioAnchor(ratio=1.0, overhead_ns=0.0,
                             per_byte_ns=engine_per_byte_ns)],
        submit_ns=submit_ns,
        pre_overhead_ns=pre_ns,
        post_overhead_ns=post_ns,
    )


def make_fleet(sim, count=2, per_byte=(0.01, 0.1), **kwargs):
    return [
        FleetDevice(sim, StubDevice(name=f"dev{i}"),
                    flat_model(engine_per_byte_ns=per_byte[i]), **kwargs)
        for i in range(count)
    ]


def stub_cluster(per_byte=(0.01, 0.1), queue_limit=4, policy="cost-model",
                 *, fleet=None, batch_size=1, batch_timeout_ns=None,
                 fair_share_tenants=None, cache_blocks=None,
                 block_bytes=65536, **service_kwargs):
    """Cluster over stub devices, built from parts (no calibration).

    One flat-model stub per ``per_byte`` entry, unless ``fleet`` gives
    the ``(device, model)`` pairs; ``cache_blocks`` adds a block-store
    tier of ``block_bytes`` blocks.
    """
    sim = Simulator()
    if fleet is None:
        fleet = [(StubDevice(name=f"dev{i}"),
                  flat_model(engine_per_byte_ns=per_byte[i]))
                 for i in range(len(per_byte))]
    members, _ = build_fleet(sim, fleet, queue_limit=queue_limit,
                             batch_size=batch_size,
                             batch_timeout_ns=batch_timeout_ns,
                             fair_share_tenants=fair_share_tenants)
    service = SchedulerCore(sim, members, policy, **service_kwargs)
    store = None
    if cache_blocks is not None:
        store = CompressedBlockStore(sim, service, BlockCache(cache_blocks),
                                     block_bytes=block_bytes)
    return Cluster(sim, service, store=store)
