"""Deflate-like codec (the CPU and QAT baseline algorithm).

Structurally follows RFC 1951: LZ77 over a 32 KB window, then a single
Huffman-coded stream mixing literal bytes with length codes, plus a
second Huffman table for distance codes (both with the RFC extra-bit
bucket tables).  Two deliberate deviations, documented for fidelity:

* code lengths are capped at 11 bits (so the nibble-packed table
  serialization is shared with DPZip).  On the <=64 KB blocks this
  package compresses, depth >11 essentially never occurs, so the ratio
  impact is negligible;
* minimum match length is 4 (shared tokenizer), vs. RFC 1951's 3.

The QAT devices in the paper implement Deflate in hardware; they reuse
this codec functionally and differ only in their device/cost models.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.core import huffman
from repro.core.bitio import BitReader, BitWriter
from repro.core.matchers import ChainMatcher, ChainMatcherConfig, config_for_level
from repro.core.tokens import MIN_MATCH, TokenStream, copy_match
from repro.errors import BitstreamError, DecompressionError

_EOB = 256  # end-of-block symbol

# RFC 1951 length code tables (codes 257..285 -> symbol index 257+i).
_LENGTH_BASE = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51,
    59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
]
_LENGTH_EXTRA = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
    4, 5, 5, 5, 5, 0,
]
_DIST_BASE = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
    513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
]
_DIST_EXTRA = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
    10, 11, 11, 12, 12, 13, 13,
]

_LITLEN_ALPHABET = 286
_DIST_ALPHABET = 30
_MAX_MATCH = 258

_MODE_RAW = 0
_MODE_DYNAMIC = 1


def _length_codes() -> list[tuple[int, int, int]]:
    """Match length (index, 3..258) -> ``(symbol, extra_value, extra_bits)``."""
    codes = [(0, 0, 0)] * 3
    for index, base in enumerate(_LENGTH_BASE[:-1]):
        extra = _LENGTH_EXTRA[index]
        codes += [(257 + index, length - base, extra)
                  for length in range(base, min(base + (1 << extra),
                                                _MAX_MATCH))]
    codes.append((285, 0, 0))  # 258 has its own extra-free code
    return codes


_LENGTH_CODES = _length_codes()


def _distance_code(distance: int) -> tuple[int, int, int]:
    """Match offset (1..32768) -> ``(symbol, extra_value, extra_bits)``.

    Codes 2k+2 and 2k+3 split ``[2^(k+1), 2^(k+2))`` of ``distance - 1``
    in halves and carry ``k`` extra bits, so the symbol follows from the
    bit length instead of a table walk.
    """
    if distance <= 4:
        return distance - 1, 0, 0
    rest = distance - 1
    extra = rest.bit_length() - 2
    return 2 * extra + (rest >> extra), rest & ((1 << extra) - 1), extra


def _stream_bits(value: int, nbits: int) -> str:
    """``value``'s low ``nbits`` bits, LSB first, as a '0'/'1' string."""
    return format(value, f"0{nbits}b")[::-1] if nbits else ""


def _code_strings(table: huffman.HuffmanTable) -> list[str]:
    """Per-symbol canonical code as a '0'/'1' string, MSB first."""
    return [format(code, f"0{length}b") if length else ""
            for code, length in table.codes]


@dataclass
class DeflateStats:
    """Work counters surfaced to the CPU/QAT cost models."""

    litlen_symbols: int = 0
    dist_symbols: int = 0
    table_builds: int = 0
    matcher: dict = field(default_factory=dict)


class DeflateCodec:
    """Deflate-like compressor with level-parameterized search."""

    name = "deflate"

    def __init__(self, level: int = 1,
                 config: ChainMatcherConfig | None = None) -> None:
        self.level = level
        if config is None:
            config = config_for_level(level)
        # Deflate's window and match cap are fixed by the format.  The
        # copy keeps shared level presets (zstd reads them too) and the
        # caller's config unchanged.
        config = replace(config, window_log=min(config.window_log, 15),
                         max_match=_MAX_MATCH)
        self._matcher = ChainMatcher(config)
        self.last_stats = DeflateStats()

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` into a self-contained deflate-like frame."""
        stats = DeflateStats()
        tokens = self._matcher.tokenize(data)
        stats.matcher = vars(self._matcher.stats).copy()
        payload = self._encode(data, tokens, stats)
        self.last_stats = stats
        return payload

    def decompress(self, payload: bytes) -> bytes:
        """Inverse of :meth:`compress`."""
        if not payload:
            raise DecompressionError("empty deflate frame")
        reader = BitReader(payload)
        mode = reader.read(8)
        size = reader.read(32)
        if mode == _MODE_RAW:
            return reader.read_bytes(size)
        if mode != _MODE_DYNAMIC:
            raise DecompressionError(f"unknown deflate mode {mode}")
        litlen = huffman.HuffmanTable(huffman.parse_lengths(reader))
        dist = huffman.HuffmanTable(huffman.parse_lengths(reader))
        out = _inflate(payload, reader.bits_consumed, litlen, dist)
        if len(out) != size:
            raise DecompressionError(
                f"deflate decoded {len(out)} bytes, header says {size}"
            )
        return bytes(out)

    # -- internals ----------------------------------------------------------

    def _encode(self, data: bytes, tokens: TokenStream,
                stats: DeflateStats) -> bytes:
        literals = tokens.literals
        # One (literal run end, length, distance) entry per match piece.
        plan: list[tuple[int, int, int]] = []
        lit_end = 0
        for seq in tokens.sequences:
            lit_end += seq.literal_length
            remaining = seq.match_length
            # Chop matches beyond the format cap into 258-byte pieces,
            # never leaving a tail shorter than MIN_MATCH.
            while remaining > _MAX_MATCH:
                piece = (_MAX_MATCH if remaining - _MAX_MATCH >= MIN_MATCH
                         else remaining - MIN_MATCH)
                plan.append((lit_end, piece, seq.offset))
                remaining -= piece
            if remaining:
                plan.append((lit_end, remaining, seq.offset))
        stats.litlen_symbols += len(literals) + len(plan) + 1
        stats.dist_symbols += len(plan)
        lengths = {piece: _LENGTH_CODES[piece] for piece
                   in dict.fromkeys(piece for _, piece, _ in plan)}
        distances = {offset: _distance_code(offset) for offset
                     in dict.fromkeys(offset for _, _, offset in plan)}

        litlen_freqs = [0] * _LITLEN_ALPHABET
        for byte, count in Counter(literals).items():
            litlen_freqs[byte] = count
        litlen_freqs[_EOB] = 1
        dist_freqs = [0] * _DIST_ALPHABET
        for _, piece, offset in plan:
            litlen_freqs[lengths[piece][0]] += 1
            dist_freqs[distances[offset][0]] += 1
        litlen_table = huffman.build_huffman_table(litlen_freqs)
        stats.table_builds += 1
        writer = BitWriter()
        writer.write(_MODE_DYNAMIC, 8)
        writer.write(len(data), 32)
        huffman.serialize_lengths(litlen_table.lengths, writer)
        if plan:
            dist_table = huffman.build_huffman_table(dist_freqs)
            stats.table_builds += 1
        else:
            dist_table = huffman.HuffmanTable([0] * _DIST_ALPHABET)
        huffman.serialize_lengths(dist_table.lengths, writer)

        # The symbol stream is joined as one stream-order '0'/'1' string
        # from per-symbol pieces (a canonical code is written MSB-first,
        # extra bits LSB-first) and packed by a single conversion.
        lit_bits = _code_strings(litlen_table)
        dist_bits = _code_strings(dist_table)
        length_bits = {piece: lit_bits[sym] + _stream_bits(extra, nbits)
                       for piece, (sym, extra, nbits) in lengths.items()}
        distance_bits = {
            offset: dist_bits[sym] + _stream_bits(extra, nbits)
            for offset, (sym, extra, nbits) in distances.items()}
        parts: list[str] = []
        lit_pos = 0
        for lit_end, piece, offset in plan:
            parts += map(lit_bits.__getitem__, literals[lit_pos:lit_end])
            parts.append(length_bits[piece])
            parts.append(distance_bits[offset])
            lit_pos = lit_end
        parts += map(lit_bits.__getitem__, literals[lit_pos:])
        parts.append(lit_bits[_EOB])
        stream = "".join(parts)
        # The serialized tables are whole bytes (a 16-bit count plus an
        # even number of nibbles after the 40-bit header), so the
        # symbol stream starts byte-aligned.
        writer.write_bytes(int(stream[::-1], 2).to_bytes(
            (len(stream) + 7) // 8, "little"))
        payload = writer.getvalue()
        raw_size = 5 + len(data)
        if len(payload) >= raw_size:
            raw = BitWriter()
            raw.write(_MODE_RAW, 8)
            raw.write(len(data), 32)
            raw.align()
            raw.write_bytes(data)
            return raw.getvalue()
        return payload


def _inflate(data: bytes, bit_pos: int, litlen: huffman.HuffmanTable,
             dist: huffman.HuffmanTable) -> bytearray:
    """Decode the symbol stream that starts ``bit_pos`` bits into ``data``.

    The bit buffer lives in locals: ``acc`` holds ``nbits`` unread
    stream bits (first bit in bit 0) and is refilled eight bytes at a
    time.  Past the end of ``data`` it reads zeros, so each step checks
    ``nbits`` before it trusts a decoded value, raising what the
    bit-serial :meth:`~repro.core.huffman.HuffmanTable.decode_symbol`
    would: :class:`BitstreamError` for a truncated stream and
    :class:`DecompressionError` for a pattern no code owns.
    """
    lit_table = litlen.decode_table
    lit_mask = (1 << litlen.max_bits) - 1
    dist_table = dist.decode_table
    dist_mask = (1 << dist.max_bits) - 1
    pos = bit_pos >> 3
    chunk = data[pos:pos + 8]
    acc = int.from_bytes(chunk, "little") >> (bit_pos & 7)
    nbits = (len(chunk) << 3) - (bit_pos & 7)
    pos += 8
    out = bytearray()
    append = out.append
    while True:
        if nbits < 48:  # one match needs at most 11+5+11+13 bits
            chunk = data[pos:pos + 8]
            acc |= int.from_bytes(chunk, "little") << nbits
            nbits += len(chunk) << 3
            pos += 8
        entry = lit_table[acc & lit_mask]
        used = entry & 0xFF
        if used > nbits:
            raise _code_error(entry, nbits, litlen.max_bits)
        acc >>= used
        nbits -= used
        symbol = entry >> 8
        if symbol < 256:
            append(symbol)
            continue
        if symbol == _EOB:
            return out
        index = symbol - 257
        extra = _LENGTH_EXTRA[index]
        length = _LENGTH_BASE[index] + (acc & ((1 << extra) - 1))
        acc >>= extra
        nbits -= extra
        entry = dist_table[acc & dist_mask]
        used = entry & 0xFF
        if used > nbits:
            raise _code_error(entry, nbits, dist.max_bits)
        acc >>= used
        nbits -= used
        extra = _DIST_EXTRA[entry >> 8]
        distance = _DIST_BASE[entry >> 8] + (acc & ((1 << extra) - 1))
        acc >>= extra
        nbits -= extra
        if nbits < 0:
            raise BitstreamError("deflate stream ends inside extra bits")
        if distance > len(out):
            raise DecompressionError("deflate distance before start")
        out += copy_match(out, distance, length)


def _code_error(entry: int, nbits: int, max_bits: int) -> Exception:
    """Error for a failed table lookup with ``nbits`` stream bits left."""
    if entry == huffman.INVALID_CODE and nbits >= max_bits:
        return DecompressionError("invalid Huffman code in stream")
    return BitstreamError("deflate stream ends inside a Huffman code")


def roundtrip_check(data: bytes, level: int = 1) -> bool:
    """Self-test helper: compress + decompress and compare."""
    codec = DeflateCodec(level)
    return codec.decompress(codec.compress(data)) == data
