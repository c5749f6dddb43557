"""Compression offload service over a heterogeneous CDPU fleet.

Maps the paper's placement taxonomy (Figure 1: CPU software, peripheral,
on-chip, in-storage) onto a serving layer with an explicit control
plane / data plane split: open-loop request streams tagged with SLO
classes, a scheduler core owning admission and deadline-aware dispatch,
pluggable placement policies, batched submission, QoS arbitration per
device (Figure 20), CPU-software spill, and a fleet controller for
dynamic reconfiguration (hotplug, brown-out, power capping).
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.control import FleetController
from repro.service.fleet import Batcher, DeviceState, FleetDevice
from repro.service.model import (
    DeviceCostModel,
    ModeledCost,
    RatioAnchor,
    calibrated,
    calibrated_ops,
)
from repro.service.offload import (
    OffloadService,
    ServiceReport,
    build_fleet,
    default_fleet,
)
from repro.service.policy import (
    POLICIES,
    CostModelPolicy,
    DeadlineAware,
    DispatchPolicy,
    RoundRobin,
    ShortestQueue,
    StaticPinning,
    make_policy,
)
from repro.service.request import (
    BEST_EFFORT,
    INTERACTIVE,
    SLO_CLASSES,
    THROUGHPUT,
    OffloadRequest,
    OpenLoopStream,
    SloClass,
    make_slo_class,
)
from repro.service.scheduler import (
    SchedulerCore,
    ServiceMetrics,
    SloStats,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BEST_EFFORT",
    "Batcher",
    "CostModelPolicy",
    "DeadlineAware",
    "DeviceCostModel",
    "DeviceState",
    "DispatchPolicy",
    "FleetController",
    "FleetDevice",
    "INTERACTIVE",
    "ModeledCost",
    "OffloadRequest",
    "OffloadService",
    "OpenLoopStream",
    "POLICIES",
    "RatioAnchor",
    "RoundRobin",
    "SLO_CLASSES",
    "SchedulerCore",
    "ServiceMetrics",
    "ServiceReport",
    "ShortestQueue",
    "SloClass",
    "SloStats",
    "StaticPinning",
    "THROUGHPUT",
    "build_fleet",
    "calibrated",
    "calibrated_ops",
    "default_fleet",
    "make_policy",
    "make_slo_class",
]
