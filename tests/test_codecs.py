"""Cross-codec round-trip, ratio-ordering and block-format tests."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import blockformat, get_compressor
from repro.core.blockformat import (
    ll_code, ll_extra_bits, ll_value,
    ml_code, ml_extra_bits, ml_value,
    of_code, of_extra_bits, of_value,
    read_varint, write_varint,
)
from repro.core.deflate import DeflateCodec
from repro.core.dpzip_codec import DpzipCodec, reference_roundtrip
from repro.core.lz4 import Lz4Codec
from repro.core.matchers import (
    LEVEL_PRESETS,
    ChainMatcher,
    ChainMatcherConfig,
    config_for_level,
)
from repro.core.snappy import SnappyCodec
from repro.core.tokens import reconstruct
from repro.core.zstd import ZstdLikeCodec
from repro.errors import DecompressionError

CASES = {
    "empty": b"",
    "single": b"Q",
    "short": b"hello world",
    "text": b"in-storage compression accelerator for SSDs " * 100,
    "zeros": bytes(6000),
    "binary": bytes(range(256)) * 20,
    "random": random.Random(11).randbytes(6000),
    "page": (b"key=%d;val=longish-payload;" * 300)[:4096],
}

ALL_CODECS = [
    ("snappy", SnappyCodec()),
    ("lz4", Lz4Codec()),
    ("deflate-1", DeflateCodec(level=1)),
    ("deflate-3", DeflateCodec(level=3)),
    ("deflate-10", DeflateCodec(level=10)),
    ("zstd-1", ZstdLikeCodec(level=1)),
    ("zstd-3", ZstdLikeCodec(level=3)),
    ("dpzip", DpzipCodec()),
]


class TestRoundtrips:
    @pytest.mark.parametrize("name,codec", ALL_CODECS,
                             ids=[n for n, _ in ALL_CODECS])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_roundtrip(self, name, codec, case):
        data = CASES[case]
        compressed = codec.compress(data)
        payload = getattr(compressed, "payload", compressed)
        assert codec.decompress(payload) == data

    def test_dpzip_reference_cross_check(self):
        assert reference_roundtrip(CASES["text"])
        assert reference_roundtrip(CASES["random"])


class TestRatios:
    def test_deflate_beats_lightweight_on_text(self):
        from repro.workloads.corpus import synthetic_text
        text = synthetic_text(16384, seed=42)
        deflate = len(DeflateCodec(1).compress(text))
        snappy = len(SnappyCodec().compress(text))
        lz4 = len(Lz4Codec().compress(text))
        assert deflate < snappy
        assert deflate < lz4

    def test_higher_deflate_level_not_worse(self):
        text = CASES["page"] * 4
        l1 = len(DeflateCodec(1).compress(text))
        l10 = len(DeflateCodec(10).compress(text))
        assert l10 <= l1 * 1.02

    def test_dpzip_close_to_deflate(self):
        """Finding 1: DPZip tracks Deflate with a small penalty."""
        text = CASES["page"]
        deflate_ratio = len(DeflateCodec(1).compress(text)) / len(text)
        dpzip_ratio = DpzipCodec().compress(text).ratio
        assert dpzip_ratio < deflate_ratio + 0.12

    def test_incompressible_bounded_expansion(self):
        data = CASES["random"]
        for _, codec in ALL_CODECS:
            compressed = codec.compress(data)
            payload = getattr(compressed, "payload", compressed)
            assert len(payload) <= len(data) * 1.05 + 64


class TestChainMatcher:
    def test_tokenize_reconstructs(self):
        matcher = ChainMatcher(config_for_level(3))
        data = CASES["text"]
        assert reconstruct(matcher.tokenize(data)) == data

    def test_deeper_level_finds_no_fewer_matches(self):
        data = CASES["page"] * 2
        shallow = ChainMatcher(config_for_level(1))
        deep = ChainMatcher(config_for_level(10))
        shallow.tokenize(data)
        deep.tokenize(data)
        assert deep.stats.matched_bytes >= shallow.stats.matched_bytes * 0.95

    def test_chain_work_grows_with_level(self):
        data = CASES["page"] * 4
        shallow = ChainMatcher(config_for_level(1))
        deep = ChainMatcher(config_for_level(10))
        shallow.tokenize(data)
        deep.tokenize(data)
        assert deep.stats.chain_steps > shallow.stats.chain_steps


class TestLevelPresets:
    def test_deflate_codecs_leave_shared_presets_alone(self):
        data = CASES["zeros"] + CASES["text"]
        zstd_first = ZstdLikeCodec(3).compress(data)
        before = {level: dataclasses.asdict(config)
                  for level, config in LEVEL_PRESETS.items()}
        caller = ChainMatcherConfig(window_log=17)
        for level in LEVEL_PRESETS:
            DeflateCodec(level)
        DeflateCodec(config=caller)
        after = {level: dataclasses.asdict(config)
                 for level, config in LEVEL_PRESETS.items()}
        assert after == before
        assert all(config.max_match == ChainMatcherConfig().max_match
                   for config in LEVEL_PRESETS.values())
        assert (caller.window_log, caller.max_match) == (17, 1 << 16)
        assert ZstdLikeCodec(3).compress(data) == zstd_first


class TestBlockFormat:
    def test_varint_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 1 << 20, (1 << 40) + 3):
            out = bytearray()
            write_varint(out, value)
            parsed, pos = read_varint(bytes(out), 0)
            assert parsed == value and pos == len(out)

    def test_ll_code_roundtrip(self):
        for v in list(range(40)) + [100, 1000, 65535, 100000]:
            code, extra, bits = ll_code(v)
            assert bits == ll_extra_bits(code)
            assert ll_value(code, extra) == v

    def test_ml_code_roundtrip(self):
        for v in list(range(4, 60)) + [258, 1000, 65535]:
            code, extra, bits = ml_code(v)
            assert bits == ml_extra_bits(code)
            assert ml_value(code, extra) == v

    def test_of_code_roundtrip(self):
        for v in [1, 2, 3, 7, 8, 255, 4096, 65535, 131071]:
            code, extra, bits = of_code(v)
            assert bits == of_extra_bits(code)
            assert of_value(code, extra) == v

    def test_truncated_frame_rejected(self):
        codec = DpzipCodec()
        data = CASES["text"]
        payload = codec.compress(data).payload
        # Truncation either raises or yields something other than the
        # original (a cut may fall exactly on a page-frame boundary).
        try:
            out = codec.decompress(payload[:len(payload) // 2])
        except DecompressionError:
            return
        assert out != data

    def test_corrupt_frame_mode_rejected(self):
        with pytest.raises(DecompressionError):
            blockformat.decode_frame(b"\x07abc")

    def test_raw_fallback_flag(self):
        from repro.core.lz77 import DpzipLz77Encoder
        data = random.Random(1).randbytes(4096)
        tokens = DpzipLz77Encoder().encode(data)
        frame, stats = blockformat.encode_frame(data, tokens)
        assert stats.raw_fallback
        assert blockformat.decode_frame(frame) == data


class TestRegistry:
    def test_all_names_resolve(self):
        from repro.core import algorithm_names
        for name in algorithm_names():
            adapter = get_compressor(name)
            outcome = adapter.compress(b"test data " * 50)
            assert adapter.decompress(outcome.payload) == b"test data " * 50

    def test_unknown_name_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            get_compressor("brotli")

    def test_outcome_ratio(self):
        outcome = get_compressor("deflate", level=1).compress(
            b"aaaa" * 1000
        )
        assert outcome.ratio < 0.1


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=4096))
def test_deflate_roundtrip_property(data):
    codec = DeflateCodec(1)
    assert codec.decompress(codec.compress(data)) == data


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=4096))
def test_lz4_snappy_roundtrip_property(data):
    assert Lz4Codec().decompress(Lz4Codec().compress(data)) == data
    assert SnappyCodec().decompress(SnappyCodec().compress(data)) == data


@settings(max_examples=20, deadline=None)
@given(st.binary(max_size=10000))
def test_dpzip_multi_page_roundtrip_property(data):
    codec = DpzipCodec()
    result = codec.compress(data)
    assert codec.decompress(result.payload) == data
    assert len(result.page_sizes) == max(1, -(-len(data) // 4096))
