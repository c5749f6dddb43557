"""Compressed block store tier over the CDPU offload fleet.

Serves GET/PUT traffic on top of :mod:`repro.service`: writes compress
through the fleet and pack into fixed-size physical segments
(:mod:`repro.store.blockmap`), reads probe a decompressed-block LRU
cache with ghost-list accounting (:mod:`repro.store.cache`) and on
miss issue ``op="decompress"`` requests priced by decompress-calibrated
cost models — the read-dominated serving regime behind the paper's
filesystem/KV results (Findings 7-8, Figures 16-17).
"""

from repro.store.blockmap import BlockLocation, BlockMap
from repro.store.cache import BlockCache
from repro.store.store import (
    CompressedBlockStore,
    StoreMetrics,
    StoreReport,
)

__all__ = [
    "BlockCache",
    "BlockLocation",
    "BlockMap",
    "CompressedBlockStore",
    "StoreMetrics",
    "StoreReport",
]
