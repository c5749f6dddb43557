"""RocksDB-like LSM-tree store with pluggable compression (Figure 13).

A real (small-scale) LSM engine: puts go through the WAL into a
memtable; full memtables flush to L0 SSTables; leveled compaction with
a 10x size fan-out keeps the tree shallow.  Compression runs at SSTable
build time through a :class:`CompressionHook`, so the three integration
styles the paper contrasts fall out naturally:

* QAT/CPU hooks shrink the **logical** file size — each SSTable packs
  more user data, the tree is shallower, reads touch fewer levels
  (Finding 8);
* the in-storage hook leaves logical sizes unchanged — identical tree
  shape to OFF, compression only reduces physical NAND bytes.

Every operation returns an :class:`OpCost` with the host CPU time,
accelerator occupancy and storage traffic it generated; the YCSB
experiment layer turns those into closed-loop throughput curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.kv.hooks import CompressionHook, OffHook
from repro.apps.kv.memtable import MemTable
from repro.apps.kv.sstable import (
    SSTable,
    iterate_entries,
    read_block,
    scan_entries,
)
from repro.apps.kv.wal import WriteAheadLog
from repro.errors import ConfigurationError


@dataclass
class StorageTimingModel:
    """Device-side costs of the store's IO (NVMe SSD class)."""

    write_gbps: float = 6.0
    read_block_base_ns: float = 75_000.0
    read_gbps: float = 1.5
    index_read_ns: float = 28_000.0
    wal_append_gbps: float = 2.0
    wal_sync_ns: float = 5_000.0

    def block_read_ns(self, nbytes: int) -> float:
        return self.read_block_base_ns + nbytes / self.read_gbps

    def write_ns(self, nbytes: int) -> float:
        return nbytes / self.write_gbps


@dataclass
class OpCost:
    """Cost envelope of a single store operation."""

    foreground_ns: float = 0.0      # latency the client thread observes
    host_cpu_ns: float = 0.0        # host CPU work (fg + bg)
    accel_busy_ns: float = 0.0      # accelerator engine occupancy
    storage_read_bytes: int = 0
    storage_write_bytes: int = 0    # physical bytes to the device
    host_write_bytes: int = 0       # logical bytes crossing the host link
    blocks_read: int = 0
    tables_checked: int = 0
    found: bool = False


@dataclass
class TimingLedger:
    """Aggregated costs across a workload run."""

    ops: int = 0
    foreground_ns: float = 0.0
    host_cpu_ns: float = 0.0
    accel_busy_ns: float = 0.0
    background_ns: float = 0.0
    storage_read_bytes: int = 0
    storage_write_bytes: int = 0
    host_write_bytes: int = 0
    blocks_read: int = 0
    flushes: int = 0
    compactions: int = 0

    def absorb(self, cost: OpCost) -> None:
        self.ops += 1
        self.foreground_ns += cost.foreground_ns
        self.host_cpu_ns += cost.host_cpu_ns
        self.accel_busy_ns += cost.accel_busy_ns
        self.storage_read_bytes += cost.storage_read_bytes
        self.storage_write_bytes += cost.storage_write_bytes
        self.host_write_bytes += cost.host_write_bytes
        self.blocks_read += cost.blocks_read


def _range_search(level: list[SSTable], key: bytes) -> SSTable | None:
    """Find the (unique) table in a sorted level whose range covers key."""
    lo, hi = 0, len(level) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        table = level[mid]
        if key < table.first_key:
            hi = mid - 1
        elif key > table.last_key:
            lo = mid + 1
        else:
            return table
    return None


class LsmStore:
    """The store.  All sizes are logical (file) bytes."""

    def __init__(
        self,
        hook: CompressionHook | None = None,
        memtable_bytes: int = 256 * 1024,
        block_bytes: int = 8 * 1024,
        l0_compaction_trigger: int = 4,
        level_base_bytes: int = 1 * 1024 * 1024,
        level_fanout: int = 10,
        target_file_bytes: int = 512 * 1024,
        storage: StorageTimingModel | None = None,
    ) -> None:
        if level_fanout < 2:
            raise ConfigurationError("level_fanout must be >= 2")
        self.hook = hook or OffHook()
        self.memtable = MemTable(memtable_bytes)
        self.wal = WriteAheadLog()
        self.block_bytes = block_bytes
        self.l0_trigger = l0_compaction_trigger
        self.level_base_bytes = level_base_bytes
        self.level_fanout = level_fanout
        self.target_file_bytes = target_file_bytes
        self.storage = storage or StorageTimingModel()
        self.l0: list[SSTable] = []            # newest first
        self.levels: list[list[SSTable]] = []  # L1.. sorted, non-overlap
        self.ledger = TimingLedger()
        self._cold_indexes: set[int] = set()
        # Uncompressed-block cache (RocksDB block cache): LRU from
        # (table_id, block first_key) to the decompressed block.
        self.block_cache_capacity = 256
        self._block_cache: dict[tuple[int, bytes], bytes] = {}

    # -- write path ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> OpCost:
        cost = OpCost()
        wal_bytes = self.wal.append(key, value)
        cost.foreground_ns += (wal_bytes / self.storage.wal_append_gbps
                               + self.storage.wal_sync_ns)
        cost.storage_write_bytes += wal_bytes
        cost.host_write_bytes += wal_bytes
        cost.host_cpu_ns += 500.0  # memtable insert + encoding
        cost.foreground_ns += 500.0
        self.memtable.put(key, value)
        if self.memtable.is_full:
            self._flush(cost)
        self.ledger.absorb(cost)
        return cost

    def _flush(self, cost: OpCost) -> None:
        items = self.memtable.sorted_items()
        if not items:
            return
        table = SSTable.build(items, self.hook, self.block_bytes)
        self.memtable.clear()
        self.wal.reset()
        self.l0.insert(0, table)
        self._charge_build(table, cost)
        self.ledger.flushes += 1
        self._cold_indexes.discard(table.table_id)
        if len(self.l0) >= self.l0_trigger:
            self._compact_l0(cost)
        self._maybe_compact_levels(cost)

    def _charge_build(self, table: SSTable, cost: OpCost) -> None:
        report = table.report
        build_ns = (report.host_cpu_ns
                    + self.storage.write_ns(report.physical_bytes))
        cost.host_cpu_ns += report.host_cpu_ns
        cost.accel_busy_ns += report.accel_busy_ns
        cost.storage_write_bytes += report.physical_bytes
        cost.host_write_bytes += report.logical_bytes
        self.ledger.background_ns += build_ns

    # -- compaction -----------------------------------------------------------

    def _compact_l0(self, cost: OpCost) -> None:
        """Merge all of L0 with the overlapping part of L1."""
        sources = list(self.l0)
        self.l0.clear()
        l1 = self.levels[0] if self.levels else []
        low = min(t.first_key for t in sources)
        high = max(t.last_key for t in sources)
        overlapping = [t for t in l1 if not (t.last_key < low
                                             or t.first_key > high)]
        keep = [t for t in l1 if t not in overlapping]
        merged = self._merge_tables(sources + overlapping, cost)
        if not self.levels:
            self.levels.append([])
        self.levels[0] = sorted(keep + merged, key=lambda t: t.first_key)
        self.ledger.compactions += 1

    def _maybe_compact_levels(self, cost: OpCost) -> None:
        level = 0
        while level < len(self.levels):
            limit = self.level_base_bytes * (self.level_fanout ** level)
            size = sum(t.logical_bytes for t in self.levels[level])
            if size <= limit:
                level += 1
                continue
            # Push the first table down into the next level.
            victim = self.levels[level].pop(0)
            if level + 1 >= len(self.levels):
                self.levels.append([])
            below = self.levels[level + 1]
            overlapping = [t for t in below
                           if not (t.last_key < victim.first_key
                                   or t.first_key > victim.last_key)]
            keep = [t for t in below if t not in overlapping]
            merged = self._merge_tables([victim] + overlapping, cost)
            self.levels[level + 1] = sorted(keep + merged,
                                            key=lambda t: t.first_key)
            self.ledger.compactions += 1
            level += 1

    def _merge_tables(self, tables: list[SSTable],
                      cost: OpCost) -> list[SSTable]:
        """Read, merge-sort, and rewrite tables (newest wins)."""
        entries: dict[bytes, bytes] = {}
        for table in reversed(tables):  # oldest first; newest overwrites
            for block in table.blocks:
                if block.compressed:
                    raw, block_cost = self.hook.decompress_block(block.payload)
                    cost.host_cpu_ns += block_cost.host_cpu_ns
                    cost.accel_busy_ns += block_cost.accel_busy_ns
                else:
                    raw = block.payload
                read_ns = self.storage.block_read_ns(len(block.payload))
                self.ledger.background_ns += read_ns
                cost.storage_read_bytes += len(block.payload)
                for key, value in iterate_entries(raw):
                    entries[key] = value
        items = sorted(entries.items())
        out: list[SSTable] = []
        chunk: list[tuple[bytes, bytes]] = []
        chunk_bytes = 0
        for key, value in items:
            chunk.append((key, value))
            chunk_bytes += len(key) + len(value)
            if chunk_bytes >= self.target_file_bytes:
                table = SSTable.build(chunk, self.hook, self.block_bytes)
                self._charge_build(table, cost)
                out.append(table)
                chunk = []
                chunk_bytes = 0
        if chunk:
            table = SSTable.build(chunk, self.hook, self.block_bytes)
            self._charge_build(table, cost)
            out.append(table)
        return out

    # -- read path --------------------------------------------------------------

    def get(self, key: bytes) -> tuple[bytes | None, OpCost]:
        cost = OpCost()
        cost.host_cpu_ns += 300.0
        cost.foreground_ns += 300.0
        value = self.memtable.get(key)
        if value is not None:
            cost.found = True
            self.ledger.absorb(cost)
            return value, cost
        for table in self.l0:
            value = self._table_lookup(table, key, cost)
            if value is not None:
                cost.found = True
                self.ledger.absorb(cost)
                return value, cost
        for level in self.levels:
            table = _range_search(level, key)
            if table is None:
                continue
            value = self._table_lookup(table, key, cost)
            if value is not None:
                cost.found = True
                self.ledger.absorb(cost)
                return value, cost
        self.ledger.absorb(cost)
        return None, cost

    def _table_lookup(self, table: SSTable, key: bytes,
                      cost: OpCost) -> bytes | None:
        cost.tables_checked += 1
        if table.table_id in self._cold_indexes:
            # Index/filter block must be fetched from the device.
            cost.foreground_ns += self.storage.index_read_ns
            cost.storage_read_bytes += 4096
            self._cold_indexes.discard(table.table_id)
        if not table.may_contain(key):
            return None
        block = table.find_block(key)
        if block is None:
            return None
        cache_key = (table.table_id, block.first_key)
        raw = self._block_cache.pop(cache_key, None)
        if raw is not None:
            # Cache holds uncompressed blocks: no IO, no decompression.
            self._block_cache[cache_key] = raw  # refresh LRU position
            cost.host_cpu_ns += 1_200.0
            cost.foreground_ns += 1_200.0
            return scan_entries(raw, key)
        read_ns = self.storage.block_read_ns(len(block.payload))
        cost.foreground_ns += read_ns
        cost.storage_read_bytes += len(block.payload)
        cost.blocks_read += 1
        raw, block_cost = read_block(block, self.hook)
        cost.host_cpu_ns += block_cost.host_cpu_ns
        cost.accel_busy_ns += block_cost.accel_busy_ns
        cost.foreground_ns += (block_cost.host_cpu_ns
                               + block_cost.accel_latency_ns)
        self._block_cache[cache_key] = raw
        while len(self._block_cache) > self.block_cache_capacity:
            self._block_cache.pop(next(iter(self._block_cache)))
        return scan_entries(raw, key)

    # -- maintenance --------------------------------------------------------------

    def flush_page_cache(self) -> None:
        """Mark every table's index cold and drop cached blocks (the
        paper's methodology: read latency sampled right after a cache
        flush)."""
        self._block_cache.clear()
        for table in self.l0:
            self._cold_indexes.add(table.table_id)
        for level in self.levels:
            for table in level:
                self._cold_indexes.add(table.table_id)

    # -- introspection ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Levels holding data (L0 counts once when non-empty)."""
        depth = 1 if self.l0 else 0
        depth += sum(1 for level in self.levels if level)
        return depth

    @property
    def table_count(self) -> int:
        return len(self.l0) + sum(len(level) for level in self.levels)

    @property
    def logical_bytes(self) -> int:
        total = sum(t.logical_bytes for t in self.l0)
        total += sum(t.logical_bytes for level in self.levels for t in level)
        return total

    @property
    def physical_bytes(self) -> int:
        total = sum(t.physical_bytes for t in self.l0)
        total += sum(t.physical_bytes for level in self.levels for t in level)
        return total
