"""Tests for DPZip's hardware LZ77 engine and the bounded hash table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashtable import BoundedHashTable, hash_pair, hash_word
from repro.core.lz77 import (
    DpzipLz77Decoder,
    DpzipLz77Encoder,
    RECENT_BUFFER_BYTES,
)
from repro.core.tokens import Sequence, TokenStream, reconstruct
from repro.errors import CompressionError


class TestHashTable:
    def test_hash_width(self):
        for word in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
            assert 0 <= hash_word(word, 12) < (1 << 12)

    def test_hash_pair_decorrelated(self):
        collisions = sum(
            1 for w in range(1000)
            if hash_pair(w * 2654435761 % (1 << 32), 12)[0]
            == hash_pair(w * 2654435761 % (1 << 32), 12)[1]
        )
        assert collisions < 50

    def test_fifo_eviction(self):
        table = BoundedHashTable(index_bits=4, ways=2)
        table.insert(3, 100)
        table.insert(3, 200)
        table.insert(3, 300)  # evicts 100
        candidates = table.candidates(3)
        assert candidates == [300, 200]
        assert table.stats.evictions == 1

    def test_newest_first_order(self):
        table = BoundedHashTable(index_bits=4, ways=4)
        for pos in (1, 2, 3):
            table.insert(5, pos)
        assert table.candidates(5) == [3, 2, 1]

    def test_reset_clears(self):
        table = BoundedHashTable(index_bits=4, ways=2)
        table.insert(0, 9)
        table.reset()
        assert table.candidates(0) == []

    def test_sram_footprint(self):
        table = BoundedHashTable(index_bits=12, ways=4)
        assert table.sram_bytes == (1 << 12) * 4 * 4


class TestTokenStream:
    def test_sequence_validation(self):
        with pytest.raises(CompressionError):
            Sequence(0, 2, 1)  # below MIN_MATCH
        with pytest.raises(CompressionError):
            Sequence(0, 4, 0)  # zero offset
        with pytest.raises(CompressionError):
            Sequence(-1, 0, 0)

    def test_reconstruct_literals_only(self):
        stream = TokenStream(b"abc", [Sequence(3, 0, 0)])
        assert reconstruct(stream) == b"abc"

    def test_reconstruct_with_match(self):
        stream = TokenStream(b"abcd", [Sequence(4, 4, 4)])
        assert reconstruct(stream) == b"abcdabcd"

    def test_overlapping_copy_replicates(self):
        stream = TokenStream(b"ab", [Sequence(2, 6, 2)])
        assert reconstruct(stream) == b"abababab"

    def test_stream_validate_offset_bounds(self):
        stream = TokenStream(b"ab", [Sequence(2, 4, 10)])
        with pytest.raises(CompressionError):
            stream.validate()


class TestDpzipEncoder:
    def _roundtrip(self, data, **kwargs):
        encoder = DpzipLz77Encoder(**kwargs)
        stream = encoder.encode(data)
        return reconstruct(stream), encoder

    @pytest.mark.parametrize("data", [
        b"",
        b"x",
        b"abcd",
        b"hello world hello world hello world",
        b"\x00" * 4096,
        bytes(range(256)) * 16,
    ])
    def test_roundtrip(self, data):
        decoded, _ = self._roundtrip(data)
        assert decoded == data

    def test_random_data_roundtrip(self):
        data = random.Random(7).randbytes(4096)
        decoded, _ = self._roundtrip(data)
        assert decoded == data

    def test_redundant_data_finds_matches(self):
        data = b"pattern-one " * 300
        stream = DpzipLz77Encoder().encode(data)
        assert stream.total_match_bytes > len(data) * 0.8

    def test_window_respected(self):
        encoder = DpzipLz77Encoder(window=64)
        data = b"A" * 32 + random.Random(1).randbytes(200) + b"A" * 32
        stream = encoder.encode(data)
        for seq in stream.sequences:
            if seq.match_length:
                assert seq.offset <= 64

    def test_skip_groups_on_incompressible(self):
        encoder = DpzipLz77Encoder()
        encoder.encode(random.Random(3).randbytes(4096))
        stats = encoder.stats
        assert stats.skipped_groups > stats.groups * 0.9

    def test_first_fit_policy_stats(self):
        encoder = DpzipLz77Encoder()
        encoder.encode(b"abcdefgh" * 512)
        assert encoder.stats.sequences > 0
        assert encoder.stats.matched_bytes > 0

    def test_stats_merge_across_calls(self):
        encoder = DpzipLz77Encoder()
        encoder.encode(b"hello world " * 100)
        first = encoder.stats.groups
        encoder.encode(b"hello world " * 100)
        assert encoder.stats.groups > first


class TestDpzipDecoder:
    def test_decoder_matches_reference(self):
        data = b"compression ratio " * 200
        stream = DpzipLz77Encoder().encode(data)
        decoder = DpzipLz77Decoder()
        assert decoder.decode(stream) == reconstruct(stream)

    def test_short_offset_counted_for_register_buffer(self):
        data = b"ab" * 2000  # offset 2 matches
        stream = DpzipLz77Encoder().encode(data)
        decoder = DpzipLz77Decoder()
        decoder.decode(stream)
        assert decoder.stats.short_offset_matches > 0
        assert decoder.stats.history_reads == 0 or True

    def test_long_offset_counted_as_history_read(self):
        prefix = bytes(random.Random(2).randbytes(RECENT_BUFFER_BYTES * 2))
        data = prefix + b"X" * 8 + prefix
        stream = DpzipLz77Encoder().encode(data)
        decoder = DpzipLz77Decoder()
        decoder.decode(stream)
        assert decoder.stats.history_reads > 0


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=3000))
def test_lz77_roundtrip_property(data):
    encoder = DpzipLz77Encoder()
    stream = encoder.encode(data)
    assert reconstruct(stream) == data
    assert DpzipLz77Decoder().decode(stream) == data


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="abcab ", min_size=0, max_size=4000))
def test_lz77_redundant_text_property(text):
    data = text.encode()
    encoder = DpzipLz77Encoder()
    stream = encoder.encode(data)
    assert reconstruct(stream) == data
    # Total accounting invariant.
    assert stream.total_literals + stream.total_match_bytes == len(data)


def _bytewise_reconstruct(stream: TokenStream) -> bytes:
    """Byte-at-a-time LZ77 copy: the reference for slice replication."""
    out = bytearray()
    lit_pos = 0
    for seq in stream.sequences:
        out += stream.literals[lit_pos:lit_pos + seq.literal_length]
        lit_pos += seq.literal_length
        src = len(out) - seq.offset
        for i in range(seq.match_length):
            out.append(out[src + i])
    return bytes(out)


@st.composite
def _overlapping_streams(draw):
    """Valid token streams whose matches are mostly overlapping."""
    literals = bytearray()
    sequences = []
    produced = 0
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        chunk = draw(st.binary(min_size=0 if produced else 1, max_size=6))
        literals += chunk
        produced += len(chunk)
        offset = draw(st.integers(min_value=1,
                                  max_value=min(produced, 300)))
        length = draw(st.integers(min_value=4, max_value=300))
        sequences.append(Sequence(len(chunk), length, offset))
        produced += length
    return TokenStream(bytes(literals), sequences)


@settings(max_examples=100, deadline=None)
@given(_overlapping_streams())
def test_slice_copies_match_bytewise_reference(stream):
    expected = _bytewise_reconstruct(stream)
    assert reconstruct(stream) == expected
    decoder = DpzipLz77Decoder()
    assert decoder.decode(stream) == expected
    overlapping = sum(seq.offset < seq.match_length
                      for seq in stream.sequences)
    assert decoder.stats.overlap_copies == overlapping
    assert decoder.stats.match_bytes == stream.total_match_bytes
