"""Deflate decoder error paths and overlapping-match round trips.

The table-driven decoder reads past the end of the stream as zeros, so
every failure must still surface as the error class the bit-serial
decoder raised: a truncated stream is a :class:`BitstreamError`, a bit
pattern no code owns (with a full code width left) is a
:class:`DecompressionError`, and so are a distance reaching before the
output, a size that disagrees with the header and an unknown mode.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import huffman
from repro.core.bitio import BitWriter
from repro.core.deflate import DeflateCodec
from repro.errors import BitstreamError, DecompressionError

TEXT = b"in-storage compression accelerator for SSDs; " * 40


def _frame(litlen_lengths, dist_lengths, fields, size=1):
    """A dynamic-mode frame with the given tables and raw stream fields.

    ``fields`` are ``(value, nbits)`` pairs written LSB-first after the
    tables; Huffman codes must be given bit-reversed.
    """
    writer = BitWriter()
    writer.write(1, 8)
    writer.write(size, 32)
    huffman.serialize_lengths(litlen_lengths, writer)
    huffman.serialize_lengths(dist_lengths, writer)
    for value, nbits in fields:
        writer.write(value, nbits)
    return writer.getvalue()


def _incomplete_litlen():
    """Only 'a' (code 00) and end-of-block (code 01): 1x is unowned."""
    lengths = [0] * 286
    lengths[ord("a")] = 2
    lengths[256] = 2
    return lengths


class TestDecoderErrors:
    def test_every_truncation_is_a_bitstream_error(self):
        codec = DeflateCodec(1)
        payload = codec.compress(TEXT)
        for cut in range(5, len(payload)):
            with pytest.raises(BitstreamError):
                codec.decompress(payload[:cut])

    def test_unowned_bit_pattern(self):
        frame = _frame(_incomplete_litlen(), [0] * 30,
                       [(0b00, 2), (0b1, 1), (0, 12)])
        with pytest.raises(DecompressionError, match="invalid Huffman"):
            DeflateCodec().decompress(frame)

    def test_unowned_pattern_at_stream_end_is_a_truncation(self):
        # Fewer than the 11-bit code width remain after the 1 bit.
        frame = _frame(_incomplete_litlen(), [0] * 30, [(0b1, 1)])
        with pytest.raises(BitstreamError):
            DeflateCodec().decompress(frame)

    def test_empty_distance_table_has_no_codes(self):
        lengths = [0] * 286
        lengths[257] = 1
        lengths[256] = 1
        # Length symbol 257 (code 1), then 16 bits no distance code owns.
        frame = _frame(lengths, [0] * 30, [(0b1, 1), (0, 16)])
        with pytest.raises(DecompressionError, match="invalid Huffman"):
            DeflateCodec().decompress(frame)

    def test_distance_before_output_start(self):
        lengths = [0] * 286
        lengths[257] = 1
        lengths[256] = 1
        dist = [0] * 30
        dist[0] = 1
        # A length-3 match at distance 1 with no output yet.
        frame = _frame(lengths, dist, [(0b1, 1), (0b0, 1), (0b0, 1)])
        with pytest.raises(DecompressionError, match="before start"):
            DeflateCodec().decompress(frame)

    def test_decoded_size_must_match_header(self):
        codec = DeflateCodec(1)
        payload = bytearray(codec.compress(TEXT))
        payload[1:5] = (len(TEXT) + 1).to_bytes(4, "little")
        with pytest.raises(DecompressionError, match="header says"):
            codec.decompress(bytes(payload))

    @pytest.mark.parametrize("mode", [2, 7, 255])
    def test_unknown_mode(self, mode):
        payload = bytearray(DeflateCodec(1).compress(TEXT))
        payload[0] = mode
        with pytest.raises(DecompressionError, match="unknown deflate mode"):
            DeflateCodec(1).decompress(bytes(payload))

    def test_empty_frame(self):
        with pytest.raises(DecompressionError):
            DeflateCodec().decompress(b"")


@settings(max_examples=60, deadline=None)
@given(prefix=st.binary(max_size=40),
       unit=st.binary(min_size=1, max_size=8),
       repeats=st.integers(min_value=8, max_value=120),
       suffix=st.binary(max_size=40),
       level=st.sampled_from([1, 3, 10]))
def test_overlapping_matches_roundtrip(prefix, unit, repeats, suffix, level):
    data = prefix + unit * repeats + suffix
    codec = DeflateCodec(level)
    tokens = codec._matcher.tokenize(data)
    assert any(seq.offset < seq.match_length for seq in tokens.sequences)
    assert codec.decompress(codec.compress(data)) == data
