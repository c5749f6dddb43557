"""Immutable sorted-run files (RocksDB SSTables) with block compression.

An SSTable holds sorted key/value entries chopped into data blocks;
each block runs through the store's :class:`CompressionHook` at build
time (RocksDB's SSTable write path, Figure 13a).  File size is counted
in *logical* bytes — the hook decides whether compression shrinks that
(QAT/CPU) or only the physical footprint (in-storage).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.apps.kv.hooks import BlockCost, CompressionHook
from repro.errors import ConfigurationError


@dataclass
class DataBlock:
    """One compressed data block plus its index metadata."""

    first_key: bytes
    last_key: bytes
    payload: bytes          # as stored in the file (maybe compressed)
    entry_count: int
    uncompressed_bytes: int
    logical_bytes: int
    physical_bytes: int
    compressed: bool


@dataclass
class BuildReport:
    """Aggregate cost of constructing one SSTable."""

    host_cpu_ns: float = 0.0
    accel_busy_ns: float = 0.0
    logical_bytes: int = 0
    physical_bytes: int = 0
    uncompressed_bytes: int = 0
    blocks: int = 0


class SSTable:
    """Immutable sorted run with a sparse block index."""

    _sequence = 0

    def __init__(self, blocks: list[DataBlock], report: BuildReport) -> None:
        if not blocks:
            raise ConfigurationError("SSTable must hold at least one block")
        SSTable._sequence += 1
        self.table_id = SSTable._sequence
        self.blocks = blocks
        self.report = report
        self.first_key = blocks[0].first_key
        self.last_key = blocks[-1].last_key
        self._block_first_keys = [block.first_key for block in blocks]
        # Key membership filter (RocksDB bloom filter stand-in with a
        # deterministic ~1% false-positive emulation left to the reader
        # model; exact membership keeps the simulation honest).
        self._keys: set[bytes] = set()

    @classmethod
    def build(cls, items: list[tuple[bytes, bytes]],
              hook: CompressionHook,
              block_bytes: int = 16 * 1024) -> "SSTable":
        """Construct from sorted items, compressing block by block."""
        if not items:
            raise ConfigurationError("cannot build an empty SSTable")
        report = BuildReport()
        blocks: list[DataBlock] = []
        current: list[tuple[bytes, bytes]] = []
        current_bytes = 0

        def seal() -> None:
            nonlocal current, current_bytes
            if not current:
                return
            raw = _serialize_entries(current)
            cost: BlockCost = hook.compress_block(raw)
            compressed = cost.stored_payload is not raw
            blocks.append(DataBlock(
                first_key=current[0][0],
                last_key=current[-1][0],
                payload=cost.stored_payload,
                entry_count=len(current),
                uncompressed_bytes=len(raw),
                logical_bytes=cost.logical_bytes,
                physical_bytes=cost.physical_bytes,
                compressed=compressed,
            ))
            report.host_cpu_ns += cost.host_cpu_ns
            report.accel_busy_ns += cost.accel_busy_ns
            report.logical_bytes += cost.logical_bytes
            report.physical_bytes += cost.physical_bytes
            report.uncompressed_bytes += len(raw)
            report.blocks += 1
            current = []
            current_bytes = 0

        for key, value in items:
            current.append((key, value))
            current_bytes += len(key) + len(value) + 8
            if current_bytes >= block_bytes:
                seal()
        seal()
        table = cls(blocks, report)
        table._keys = {key for key, _ in items}
        return table

    @property
    def logical_bytes(self) -> int:
        return self.report.logical_bytes

    @property
    def physical_bytes(self) -> int:
        return self.report.physical_bytes

    @property
    def entry_count(self) -> int:
        return sum(block.entry_count for block in self.blocks)

    def key_in_range(self, key: bytes) -> bool:
        return self.first_key <= key <= self.last_key

    def may_contain(self, key: bytes) -> bool:
        """Bloom-filter check (exact membership here)."""
        return key in self._keys

    def find_block(self, key: bytes) -> DataBlock | None:
        """Locate the data block whose range covers ``key``."""
        if not self.key_in_range(key):
            return None
        index = bisect.bisect_right(self._block_first_keys, key) - 1
        if index < 0:
            return None
        block = self.blocks[index]
        if block.first_key <= key <= block.last_key:
            return block
        return None

    def get(self, key: bytes,
            hook: CompressionHook) -> tuple[bytes | None, BlockCost | None]:
        """Point lookup: find the block, decode it, scan the entries."""
        block = self.find_block(key)
        if block is None:
            return None, None
        raw, cost = read_block(block, hook)
        return scan_entries(raw, key), cost


def read_block(block: DataBlock,
               hook: CompressionHook) -> tuple[bytes, BlockCost]:
    """The block's serialized entries, decompressed if stored
    compressed, plus the cost of getting them."""
    if block.compressed:
        return hook.decompress_block(block.payload)
    return block.payload, BlockCost(
        stored_payload=block.payload,
        logical_bytes=block.logical_bytes,
        physical_bytes=block.physical_bytes,
    )


def _serialize_entries(items: list[tuple[bytes, bytes]]) -> bytes:
    out = bytearray()
    for key, value in items:
        out += len(key).to_bytes(2, "little")
        out += len(value).to_bytes(4, "little")
        out += key
        out += value
    return bytes(out)


def scan_entries(raw: bytes, key: bytes) -> bytes | None:
    """The value stored under ``key`` in a serialized block, or None."""
    pos = 0
    n = len(raw)
    while pos < n:
        klen = int.from_bytes(raw[pos:pos + 2], "little")
        vlen = int.from_bytes(raw[pos + 2:pos + 6], "little")
        pos += 6
        candidate = raw[pos:pos + klen]
        pos += klen
        if candidate == key:
            return raw[pos:pos + vlen]
        pos += vlen
    return None


def iterate_entries(raw: bytes):
    """Yield (key, value) pairs from a serialized block."""
    pos = 0
    n = len(raw)
    while pos < n:
        klen = int.from_bytes(raw[pos:pos + 2], "little")
        vlen = int.from_bytes(raw[pos + 2:pos + 6], "little")
        pos += 6
        key = raw[pos:pos + klen]
        pos += klen
        value = raw[pos:pos + vlen]
        pos += vlen
        yield key, value
