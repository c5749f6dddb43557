"""Bit-granular IO used by the entropy coders.

The writers/readers are LSB-first (DEFLATE convention): the first bit
written occupies the least significant free bit of the current byte.
All entropy stages in :mod:`repro.core` (Huffman, FSE, Deflate-like
extra bits) share these primitives so framing is uniform.

A decode or encode loop that keeps its bit buffer in local variables
(the Deflate symbol stream) takes over at a documented boundary instead
of touching reader or writer state: it starts reading the underlying
bytes at :attr:`BitReader.bits_consumed`, and it hands whole packed
bytes to :meth:`BitWriter.write_bytes` at a byte-aligned point.
"""

from __future__ import annotations

from repro.errors import BitstreamError


class BitWriter:
    """Accumulates bits LSB-first into a growable byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low-order bits of ``value``.

        ``nbits`` may be zero, in which case nothing is emitted.
        """
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if nbits == 0:
            return
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        self._accumulator |= (value & ((1 << nbits) - 1)) << self._bit_count
        self._bit_count += nbits
        while self._bit_count >= 8:
            self._buffer.append(self._accumulator & 0xFF)
            self._accumulator >>= 8
            self._bit_count -= 8

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes; requires the writer to be byte-aligned."""
        if self._bit_count != 0:
            raise BitstreamError("write_bytes requires byte alignment")
        self._buffer.extend(data)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._bit_count:
            self._buffer.append(self._accumulator & 0xFF)
            self._accumulator = 0
            self._bit_count = 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._bit_count

    def getvalue(self) -> bytes:
        """Return the buffered bits, zero-padded to a byte boundary."""
        self.align()
        return bytes(self._buffer)


class BitReader:
    """Reads bits LSB-first from a byte buffer."""

    def __init__(self, data: bytes, start: int = 0) -> None:
        self._data = data
        self._byte_pos = start
        self._accumulator = 0
        self._bit_count = 0

    def read(self, nbits: int) -> int:
        """Consume and return ``nbits`` bits as an unsigned integer."""
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if nbits == 0:
            return 0
        while self._bit_count < nbits:
            if self._byte_pos >= len(self._data):
                raise BitstreamError(
                    f"bitstream exhausted: wanted {nbits} bits, "
                    f"{self._bit_count} available"
                )
            self._accumulator |= self._data[self._byte_pos] << self._bit_count
            self._byte_pos += 1
            self._bit_count += 8
        value = self._accumulator & ((1 << nbits) - 1)
        self._accumulator >>= nbits
        self._bit_count -= nbits
        return value

    def peek(self, nbits: int) -> int:
        """Return up to ``nbits`` bits without consuming them.

        Missing bits past the end of the stream read as zero, which lets
        table-driven Huffman decoders peek a fixed width near the end.
        """
        while self._bit_count < nbits and self._byte_pos < len(self._data):
            self._accumulator |= self._data[self._byte_pos] << self._bit_count
            self._byte_pos += 1
            self._bit_count += 8
        return self._accumulator & ((1 << nbits) - 1)

    def skip(self, nbits: int) -> None:
        """Discard ``nbits`` bits previously observed via :meth:`peek`."""
        if nbits > self._bit_count:
            raise BitstreamError(
                f"cannot skip {nbits} bits, only {self._bit_count} buffered"
            )
        self._accumulator >>= nbits
        self._bit_count -= nbits

    def align(self) -> None:
        """Drop buffered bits up to the next byte boundary."""
        drop = self._bit_count % 8
        self._accumulator >>= drop
        self._bit_count -= drop

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes; requires byte alignment."""
        if self._bit_count % 8 != 0:
            raise BitstreamError("read_bytes requires byte alignment")
        result = bytearray()
        while self._bit_count >= 8 and count > 0:
            result.append(self._accumulator & 0xFF)
            self._accumulator >>= 8
            self._bit_count -= 8
            count -= 1
        if count > 0:
            end = self._byte_pos + count
            if end > len(self._data):
                raise BitstreamError("byte stream exhausted")
            result.extend(self._data[self._byte_pos:end])
            self._byte_pos = end
        return bytes(result)

    @property
    def bits_consumed(self) -> int:
        """Number of bits consumed from the underlying buffer."""
        return self._byte_pos * 8 - self._bit_count
