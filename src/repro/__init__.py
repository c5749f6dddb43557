"""Reproduction of "ASIC-based Compression Accelerators for Storage
Systems: Design, Placement, and Profiling Insights" (EuroSys 2026).

The package provides:

* :mod:`repro.core` -- working implementations of DPZip's hardware
  compression algorithms (LZ77 / canonical Huffman / FSE) and the
  software baselines (Deflate, Zstd, LZ4, Snappy);
* :mod:`repro.hw` -- cycle-level device models for the three CDPU
  placements (peripheral QAT 8970, on-chip QAT 4xxx, in-storage DPZip);
* :mod:`repro.ssd` -- the DP-CSD substrate: NAND, compression-aware FTL
  and controller SoC;
* :mod:`repro.apps` -- RocksDB-like LSM store and Btrfs/ZFS-like
  filesystems used for end-to-end evaluation;
* :mod:`repro.cluster` -- the unified cluster API: declarative
  serializable :class:`ClusterSpec`, the :class:`Cluster` session
  façade, open-loop/closed-loop/store client handles and the unified
  :class:`RunResult`;
* :mod:`repro.service` -- the compression offload service: SLO-class
  scheduling, placement-aware dispatch, batching, admission control
  and dynamic fleet reconfiguration over a CDPU fleet;
* :mod:`repro.store` -- the compressed block store tier: GET/PUT
  serving with a decompressed-block cache and packed block map;
* :mod:`repro.experiments` -- one module per paper figure/table.
"""

#: Serving-layer API re-exported at the top level, resolved lazily
#: (PEP 562) so ``import repro`` stays free of the hw/codec import
#: chain until a serving layer is actually used.
_LAZY_EXPORTS = {
    "ClosedLoopClient": "repro.cluster",
    "Cluster": "repro.cluster",
    "ClusterSpec": "repro.cluster",
    "DeviceSpec": "repro.cluster",
    "FleetSpec": "repro.cluster",
    "OpenLoopClient": "repro.cluster",
    "RunResult": "repro.cluster",
    "StoreClient": "repro.cluster",
    "default_cluster_spec": "repro.cluster",
    "AdmissionController": "repro.service",
    "DeviceCostModel": "repro.service",
    "FleetController": "repro.service",
    "FleetDevice": "repro.service",
    "OffloadRequest": "repro.service",
    "OffloadService": "repro.service",
    "OpenLoopStream": "repro.service",
    "SchedulerCore": "repro.service",
    "ServiceReport": "repro.service",
    "SloClass": "repro.service",
    "calibrated_ops": "repro.service",
    "default_fleet": "repro.service",
    "make_policy": "repro.service",
    "make_slo_class": "repro.service",
    "BlockCache": "repro.store",
    "BlockMap": "repro.store",
    "CompressedBlockStore": "repro.store",
    "StoreReport": "repro.store",
    "MixedStream": "repro.workloads",
}

__all__ = sorted(_LAZY_EXPORTS)

__version__ = "1.3.0"


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib
        module = importlib.import_module(module_name)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
