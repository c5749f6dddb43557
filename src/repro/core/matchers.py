"""Software LZ77 match finders for the CPU baselines (paper §2.2, §3.2.2).

Software compressors like Zstd and Deflate use large sliding windows and
pointer-heavy chained hash tables — exactly the structures the paper
notes are "inefficient for hardware".  :class:`ChainMatcher` implements
that classic head/prev chain search with lazy evaluation, parameterized
per compression level, so the CPU cost model can charge cycles to the
same work the profile in Figure 2 attributes to LZ77.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hashtable import hash_words
from repro.core.tokens import MIN_MATCH, Sequence, TokenStream
from repro.errors import CompressionError


@dataclass
class MatcherStats:
    """Search-work counters (inputs to the CPU cycle model)."""

    positions: int = 0
    hash_inserts: int = 0
    chain_steps: int = 0
    compare_bytes: int = 0
    lazy_evaluations: int = 0
    matches: int = 0
    matched_bytes: int = 0
    literals: int = 0


@dataclass
class ChainMatcherConfig:
    """Level-dependent search parameters.

    ``max_chain`` bounds chain walks per position, ``lazy`` enables
    one-position-lookahead parsing, ``nice_length`` stops the search
    early once a match is long enough.
    """

    window_log: int = 15
    hash_log: int = 15
    max_chain: int = 16
    lazy: bool = True
    nice_length: int = 128
    max_match: int = 1 << 16

    @property
    def window(self) -> int:
        return 1 << self.window_log


#: Deflate/Zstd-style level table.  Level 1 is the paper's default
#: ("Deflate and Zstd are both executed at level 1").
LEVEL_PRESETS: dict[int, ChainMatcherConfig] = {
    1: ChainMatcherConfig(window_log=15, hash_log=14, max_chain=4,
                          lazy=False, nice_length=32),
    2: ChainMatcherConfig(window_log=15, hash_log=14, max_chain=8,
                          lazy=False, nice_length=48),
    3: ChainMatcherConfig(window_log=16, hash_log=15, max_chain=16,
                          lazy=True, nice_length=64),
    5: ChainMatcherConfig(window_log=16, hash_log=16, max_chain=32,
                          lazy=True, nice_length=96),
    10: ChainMatcherConfig(window_log=17, hash_log=17, max_chain=128,
                           lazy=True, nice_length=512),
}


def config_for_level(level: int) -> ChainMatcherConfig:
    """Resolve a level to search parameters (nearest preset at or below)."""
    if level in LEVEL_PRESETS:
        return LEVEL_PRESETS[level]
    eligible = [lvl for lvl in LEVEL_PRESETS if lvl <= level]
    if not eligible:
        raise CompressionError(f"no preset at or below level {level}")
    return LEVEL_PRESETS[max(eligible)]


class ChainMatcher:
    """Head/prev chained-hash LZ77 tokenizer with optional lazy parsing."""

    def __init__(self, config: ChainMatcherConfig | None = None) -> None:
        self.config = config or ChainMatcherConfig()
        self.stats = MatcherStats()

    def tokenize(self, data: bytes) -> TokenStream:
        """Produce a token stream; each call is an independent block.

        Every position with a full 4-byte word is hashed once up front
        (:func:`hash_words`) and inserted exactly once, except the
        position a lazy deferral lands on.  A position whose bucket
        holds no candidate inside the window skips the chain search.
        With lazy parsing a found match waits one position (pending)
        while the search runs again at the next byte.
        """
        cfg = self.config
        n = len(data)
        hashes = hash_words(data, cfg.hash_log)
        head = [-1] * (1 << cfg.hash_log)
        prev = [-1] * n
        window = cfg.window
        max_chain = cfg.max_chain
        nice_length = cfg.nice_length
        max_match = cfg.max_match
        lazy = cfg.lazy
        from_bytes = int.from_bytes
        chain_steps = compare_bytes = deferrals = 0
        literals = bytearray()
        sequences: list[Sequence] = []
        last = n - MIN_MATCH  # last position with a full word
        pending = 0  # length of a lazy match at pos - 1, 0 when none
        pos = 0
        lit_start = 0
        while pos <= last:
            bucket = hashes[pos]
            candidate = head[bucket]
            length = 0
            if candidate >= 0 and pos - candidate <= window:
                chain = max_chain
                limit = n - pos
                if limit > max_match:
                    limit = max_match
                word = from_bytes(data[pos:pos + 16], "little")
                while candidate >= 0 and chain and pos - candidate <= window:
                    chain -= 1
                    # Common prefix: the lowest differing byte of the XOR.
                    diff = from_bytes(data[candidate:candidate + 16],
                                      "little") ^ word
                    if diff:
                        found = ((diff & -diff).bit_length() - 1) >> 3
                        if found > limit:
                            found = limit
                    else:
                        found = _extend(data, candidate, pos, limit)
                    compare_bytes += found + 1
                    if found > length:
                        length = found
                        offset = pos - candidate
                        if found >= nice_length:
                            break
                    candidate = prev[candidate]
                chain_steps += max_chain - chain
                if length < MIN_MATCH:
                    length = 0
            if pending:
                if length > pending + 1:
                    # Defer: the match here wins, and this position is
                    # never inserted.
                    deferrals += 1
                else:
                    pos -= 1
                    length, offset = pending, pending_offset
                pending = 0
            else:
                prev[pos] = head[bucket]
                head[bucket] = pos
                if not length:
                    pos += 1
                    continue
                if lazy and pos < last:
                    pending, pending_offset = length, offset
                    pos += 1
                    continue
            literals += data[lit_start:pos]
            sequences.append(Sequence(pos - lit_start, length, offset))
            for q in range(pos + 1, min(pos + length, last + 1)):
                bucket = hashes[q]
                prev[q] = head[bucket]
                head[bucket] = q
            pos += length
            lit_start = pos
        if lit_start < n:
            literals += data[lit_start:]
            sequences.append(Sequence(n - lit_start, 0, 0))
        matches = len(sequences) - (lit_start < n)
        self.stats = MatcherStats(
            positions=len(literals) + matches - deferrals,
            hash_inserts=len(hashes) - deferrals,
            chain_steps=chain_steps,
            compare_bytes=compare_bytes,
            lazy_evaluations=matches if lazy else 0,
            matches=matches,
            matched_bytes=n - len(literals),
            literals=len(literals),
        )
        stream = TokenStream(bytes(literals), sequences)
        stream.validate()
        return stream


def _extend(data: bytes, candidate: int, p: int, limit: int) -> int:
    """Common-prefix length of two positions whose first 16 bytes match,
    capped at ``limit``.  Spans start at 256 bytes (a whole deflate
    match) and double, so a short match under a long ``limit`` never
    pays for a full-width slice."""
    length = 16
    span = 256
    while length < limit:
        span = min(span, limit - length)
        diff = (int.from_bytes(data[candidate + length:
                                    candidate + length + span], "little")
                ^ int.from_bytes(data[p + length:p + length + span],
                                 "little"))
        if diff:
            return length + (((diff & -diff).bit_length() - 1) >> 3)
        length += span
        span <<= 1
    return limit
