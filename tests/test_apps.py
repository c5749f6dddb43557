"""LSM store and filesystem substrate tests."""


import pytest

from repro.apps.fs import BtrfsModel, EXTENT_BYTES, ZfsModel
from repro.apps.kv import LsmStore, MemTable, SSTable, make_hook
from repro.apps.kv.hooks import CpuDeflateHook, OffHook
from repro.errors import ConfigurationError
from repro.workloads.datagen import ratio_controlled_bytes
from repro.workloads.ycsb import make_value


def _fill(store, count, value_size=300):
    for k in range(count):
        store.put(f"user{k:08d}".encode(), make_value(k, value_size))


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"k", b"v")
        assert table.get(b"k") == b"v"

    def test_append_only_budget(self):
        """Overwrites still consume arena space (flush pressure)."""
        table = MemTable(capacity_bytes=4096)
        before = table.approximate_bytes
        table.put(b"k", b"v" * 100)
        table.put(b"k", b"v" * 100)
        assert table.approximate_bytes > before + 150

    def test_sorted_items(self):
        table = MemTable()
        table.put(b"b", b"2")
        table.put(b"a", b"1")
        assert [k for k, _ in table.sorted_items()] == [b"a", b"b"]


class TestSSTable:
    def test_build_and_get(self):
        items = [(f"k{i:04d}".encode(), f"v{i}".encode() * 10)
                 for i in range(200)]
        table = SSTable.build(items, OffHook(), block_bytes=1024)
        for key, value in items[::17]:
            got, _ = table.get(key, OffHook())
            assert got == value

    def test_missing_key(self):
        items = [(b"aaa", b"1"), (b"ccc", b"3")]
        table = SSTable.build(items, OffHook())
        assert table.get(b"bbb", OffHook())[0] is None

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SSTable.build([], OffHook())

    def test_compressed_blocks_shrink_logical_size(self):
        items = [(f"k{i:04d}".encode(), b"x" * 200) for i in range(100)]
        plain = SSTable.build(items, OffHook())
        packed = SSTable.build(items, make_hook("qat8970"))
        assert packed.logical_bytes < plain.logical_bytes * 0.5

    def test_in_storage_hook_keeps_logical_size(self):
        items = [(f"k{i:04d}".encode(), b"x" * 200) for i in range(100)]
        plain = SSTable.build(items, OffHook())
        csd = SSTable.build(items, make_hook("dpcsd"))
        assert csd.logical_bytes == plain.logical_bytes
        assert csd.physical_bytes < plain.physical_bytes


class TestLsmStore:
    def test_put_get_through_flushes(self):
        store = LsmStore(hook=OffHook(), memtable_bytes=8 * 1024)
        _fill(store, 300)
        for k in (0, 50, 123, 299):
            value, _ = store.get(f"user{k:08d}".encode())
            assert value == make_value(k, 300)

    def test_missing_key_returns_none(self):
        store = LsmStore()
        assert store.get(b"nope")[0] is None

    def test_overwrites_visible_after_compaction(self):
        store = LsmStore(hook=OffHook(), memtable_bytes=8 * 1024,
                         level_base_bytes=64 * 1024)
        for round_ in range(4):
            for k in range(100):
                store.put(f"user{k:08d}".encode(),
                          f"round{round_}-{k}".encode() * 8)
        for k in (0, 42, 99):
            value, _ = store.get(f"user{k:08d}".encode())
            assert value == f"round3-{k}".encode() * 8

    def test_qat_hook_shrinks_tree(self):
        """Finding 8: application-visible compression packs SSTables."""
        off = LsmStore(hook=OffHook(), memtable_bytes=16 * 1024,
                       level_base_bytes=96 * 1024)
        qat = LsmStore(hook=make_hook("qat8970"), memtable_bytes=16 * 1024,
                       level_base_bytes=96 * 1024)
        _fill(off, 800)
        _fill(qat, 800)
        assert qat.logical_bytes < off.logical_bytes * 0.6
        assert qat.depth <= off.depth

    def test_dpcsd_hook_transparent(self):
        off = LsmStore(hook=OffHook(), memtable_bytes=16 * 1024)
        csd = LsmStore(hook=make_hook("dpcsd"), memtable_bytes=16 * 1024)
        _fill(off, 400)
        _fill(csd, 400)
        assert csd.logical_bytes == off.logical_bytes
        assert csd.physical_bytes < off.physical_bytes
        assert csd.depth == off.depth

    def test_block_cache_hit_skips_io(self):
        store = LsmStore(hook=OffHook(), memtable_bytes=4 * 1024)
        _fill(store, 200)
        store.flush_page_cache()
        key = b"user00000050"
        _, cold = store.get(key)
        _, warm = store.get(key)
        assert warm.foreground_ns < cold.foreground_ns or cold.blocks_read == 0

    def test_block_cache_hit_decompresses_nothing(self):
        class CountingHook(CpuDeflateHook):
            decompressions = 0

            def decompress_block(self, payload):
                CountingHook.decompressions += 1
                return super().decompress_block(payload)

        store = LsmStore(hook=CountingHook(), memtable_bytes=4 * 1024)
        _fill(store, 200)
        store.flush_page_cache()
        key = b"user00000050"
        before = CountingHook.decompressions
        value, cold = store.get(key)
        assert cold.blocks_read == 1
        assert CountingHook.decompressions == before + 1
        cached, warm = store.get(key)
        assert cached == value == make_value(50, 300)
        assert warm.blocks_read == 0
        assert CountingHook.decompressions == before + 1

    def test_ledger_accumulates(self):
        store = LsmStore(hook=OffHook())
        _fill(store, 50)
        assert store.ledger.ops == 50
        assert store.ledger.host_write_bytes > 0


class TestBtrfs:
    def _data(self, n=2 * EXTENT_BYTES):
        return ratio_controlled_bytes(n, 0.45, seed=1)

    def test_write_read_roundtrip(self):
        for config in ("off", "cpu-deflate", "dpcsd"):
            fs = BtrfsModel(hook=make_hook(config),
                            in_storage_device=(config == "dpcsd"))
            data = self._data()
            fs.write(data)
            out, _ = fs.read(8192, 4096)
            assert out == data[8192:8192 + 4096]

    def test_compressed_extent_read_amplification(self):
        """Finding 9: 4 KB reads fetch the whole 128 KB extent."""
        fs = BtrfsModel(hook=make_hook("cpu-deflate"))
        fs.write(self._data())
        _, cost = fs.read(4096, 4096)
        assert cost.read_amplification > 5.0

    def test_in_storage_avoids_read_amplification(self):
        fs = BtrfsModel(hook=make_hook("dpcsd"), in_storage_device=True)
        fs.write(self._data())
        _, cost = fs.read(4096, 4096)
        assert cost.read_amplification == pytest.approx(1.0)

    def test_cpu_deflate_read_latency_peaks_high(self):
        """Figure 16b: CPU extent decompression reaches ~572 us."""
        fs = BtrfsModel(hook=make_hook("cpu-deflate"))
        fs.write(self._data())
        _, cost = fs.read(0, 4096)
        assert 300 <= cost.foreground_ns / 1000.0 <= 900

    def test_empty_write_rejected(self):
        with pytest.raises(ConfigurationError):
            BtrfsModel().write(b"")

    def test_write_throughput_ordering(self):
        """Figure 16a: dpcsd > off > qat > csd2000-ish > cpu."""
        results = {}
        for config in ("off", "cpu-deflate", "qat4xxx", "dpcsd"):
            in_storage = config == "dpcsd"
            fs = BtrfsModel(hook=make_hook(config),
                            in_storage_device=in_storage,
                            device_write_ratio=0.45 if in_storage else 1.0)
            if in_storage:
                fs.timing.in_storage_engine_gbps = 14.0
            data = self._data()
            sample = fs.write(data)
            results[config] = fs.write_throughput_gbps(sample, len(data))
        assert results["dpcsd"] > results["off"]
        assert results["off"] > results["qat4xxx"]
        assert results["qat4xxx"] > results["cpu-deflate"]


class TestZfs:
    def test_roundtrip_all_recordsizes(self):
        for recordsize in (4096, 32768, 131072):
            fs = ZfsModel(recordsize=recordsize,
                          hook=make_hook("cpu-deflate"))
            data = ratio_controlled_bytes(recordsize, 0.4, seed=2)
            fs.write_record(0, data)
            out, _ = fs.read_record(0)
            assert out == data

    def test_invalid_recordsize_rejected(self):
        with pytest.raises(ConfigurationError):
            ZfsModel(recordsize=1234)

    def test_wrong_record_length_rejected(self):
        fs = ZfsModel(recordsize=4096)
        with pytest.raises(ConfigurationError):
            fs.write_record(0, b"short")

    def test_cpu_latency_grows_with_recordsize(self):
        """Figure 17: CPU Deflate latency rises steeply with records."""
        lat = {}
        for recordsize in (4096, 131072):
            fs = ZfsModel(recordsize=recordsize, hook=make_hook("cpu-deflate"))
            data = ratio_controlled_bytes(recordsize, 0.4, seed=3)
            fs.write_record(0, data)
            _, cost = fs.read_record(0)
            lat[recordsize] = cost.foreground_ns
        assert lat[131072] > lat[4096] * 3

    def test_dpcsd_near_off_at_all_sizes(self):
        """Finding 10: DP-CSD tracks the OFF baseline."""
        for recordsize in (4096, 65536):
            data = ratio_controlled_bytes(recordsize, 0.4, seed=4)
            off = ZfsModel(recordsize=recordsize)
            csd = ZfsModel(recordsize=recordsize, hook=make_hook("dpcsd"),
                           in_storage_device=True, device_write_ratio=0.45)
            off.write_record(0, data)
            csd.write_record(0, data)
            _, off_cost = off.read_record(0)
            _, csd_cost = csd.read_record(0)
            delta_us = (csd_cost.foreground_ns
                        - off_cost.foreground_ns) / 1000.0
            assert 0.0 <= delta_us <= 12.0

    def test_update_is_rmw(self):
        fs = ZfsModel(recordsize=4096, hook=make_hook("cpu-deflate"))
        data = ratio_controlled_bytes(4096, 0.4, seed=5)
        fs.write_record(0, data)
        write_cost = fs.write_record(1, data)
        update_cost = fs.update_record(0, data)
        assert update_cost.foreground_ns > write_cost.foreground_ns
