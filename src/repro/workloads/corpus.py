"""Synthetic Silesia-like corpus (paper §5.1, Figure 7).

The paper evaluates compression ratios on the Silesia corpus — 12 files
spanning English/Polish prose, databases, executables, XML and medical
imagery.  That corpus is not redistributable here, so this module
synthesizes stand-ins that reproduce the *distributional* properties
Figure 7 depends on: a wide percentile spread from highly-redundant
(xml, nci) to essentially incompressible (x-ray, sao) members, with
text-like members in the Deflate-at-4KB ~40-50% band.

Members are generated deterministically from a seed; sizes default to
a scaled-down corpus so the test suite stays fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.datagen import entropy_bytes, ratio_controlled_bytes

_WORD_PARTS = [
    "com", "pres", "sion", "stor", "age", "sys", "tem", "data", "cen",
    "ter", "ac", "cel", "er", "ate", "page", "flash", "con", "trol",
    "ler", "band", "width", "la", "ten", "cy", "through", "put", "de",
    "vice", "block", "ta", "ble", "hash", "tree", "read", "write",
]


def _make_vocabulary(rng: random.Random, size: int) -> list[str]:
    vocab = []
    for _ in range(size):
        parts = rng.randrange(1, 4)
        vocab.append("".join(rng.choice(_WORD_PARTS) for _ in range(parts)))
    return vocab


def _zipf_weights(n: int, alpha: float) -> list[float]:
    return [1.0 / (rank ** alpha) for rank in range(1, n + 1)]


def synthetic_text(n: int, seed: int, vocab_size: int = 1200,
                   alpha: float = 1.15) -> bytes:
    """Natural-language-like text: zipf-distributed word stream."""
    rng = random.Random(seed)
    vocab = _make_vocabulary(rng, vocab_size)
    weights = _zipf_weights(vocab_size, alpha)
    pieces: list[str] = []
    length = 0
    sentence = 0
    while length < n:
        word = rng.choices(vocab, weights=weights, k=1)[0]
        sentence += 1
        if sentence >= rng.randrange(8, 16):
            word += ".\n"
            sentence = 0
        else:
            word += " "
        pieces.append(word)
        length += len(word)
    return "".join(pieces).encode("ascii")[:n]


def synthetic_xml(n: int, seed: int) -> bytes:
    """Tag-heavy XML: extremely redundant (Silesia's best compressor)."""
    rng = random.Random(seed)
    tags = ["record", "field", "value", "entry", "name", "id", "ref"]
    out = bytearray(b"<?xml version=\"1.0\"?>\n<dataset>\n")
    index = 0
    while len(out) < n:
        tag = rng.choice(tags)
        out += (
            f"  <{tag} id=\"{index:08d}\"><value>{index % 97:05d}"
            f"</value><ref>node-{index % 53:04d}</ref></{tag}>\n"
        ).encode("ascii")
        index += 1
    out += b"</dataset>\n"
    return bytes(out[:n])


def synthetic_database(n: int, seed: int) -> bytes:
    """Fixed-width record pages mixing keys, enums and counters."""
    rng = random.Random(seed)
    out = bytearray()
    row = 0
    status = ["ACTIVE", "CLOSED", "FROZEN", "QUEUED"]
    while len(out) < n:
        out += (
            f"{row:012d}|user-{rng.randrange(5000):06d}|"
            f"{rng.choice(status):<6s}|{rng.randrange(100000):08d}|"
        ).encode("ascii")
        out += rng.randbytes(8).hex().encode("ascii")
        out += b"\n"
        row += 1
    return bytes(out[:n])


def synthetic_binary(n: int, seed: int) -> bytes:
    """Executable-like: instruction-ish patterns plus literal pools."""
    rng = random.Random(seed)
    opcodes = [bytes([op, rng.randrange(16), 0x00, 0x40 + reg])
               for op in (0x48, 0x89, 0x8B, 0xE8, 0x74, 0x0F)
               for reg in range(8)]
    out = bytearray()
    while len(out) < n:
        if rng.random() < 0.15:
            out += rng.randbytes(rng.randrange(16, 64))  # literal pool
        else:
            out += rng.choice(opcodes)
    return bytes(out[:n])


def synthetic_medical(n: int, seed: int) -> bytes:
    """Smooth 16-bit imagery with sensor noise (mr-like)."""
    rng = random.Random(seed)
    out = bytearray()
    value = 512
    while len(out) < n:
        value = max(0, min(4095, value + rng.randrange(-6, 7)))
        # Clamp only the floor (-1 cannot encode unsigned); a sample
        # of 4096 fits two bytes, so every corpus that encoded before
        # keeps its bytes.
        noisy = max(0, value + rng.randrange(-1, 2))
        out += noisy.to_bytes(2, "little")
    return bytes(out[:n])


@dataclass(frozen=True)
class CorpusMember:
    """One synthetic stand-in for a Silesia file."""

    name: str
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)


def build_corpus(member_size: int = 128 * 1024,
                 seed: int = 2026) -> list[CorpusMember]:
    """Generate the full 12-member synthetic corpus.

    Member mix mirrors Silesia's compressibility spectrum: two
    near-incompressible members (sao, x-ray), highly-redundant xml/nci,
    and a text/db/binary middle ground.
    """
    if member_size < 4096:
        raise WorkloadError("member_size must be at least one page")
    rng = random.Random(seed)

    def next_seed() -> int:
        return rng.randrange(1 << 30)

    return [
        CorpusMember("dickens", synthetic_text(member_size, next_seed())),
        CorpusMember("mozilla", synthetic_binary(member_size, next_seed())),
        CorpusMember("mr", synthetic_medical(member_size, next_seed())),
        CorpusMember("nci", synthetic_xml(member_size, next_seed())),
        CorpusMember("ooffice", synthetic_binary(member_size, next_seed())),
        CorpusMember("osdb", synthetic_database(member_size, next_seed())),
        CorpusMember("reymont", synthetic_text(member_size, next_seed(),
                                               vocab_size=2000, alpha=1.05)),
        CorpusMember("samba", synthetic_database(member_size, next_seed())),
        CorpusMember("sao", entropy_bytes(member_size, 7.6,
                                          seed=next_seed())),
        CorpusMember("webster", synthetic_text(member_size, next_seed(),
                                               vocab_size=800, alpha=1.3)),
        CorpusMember("xml", synthetic_xml(member_size, next_seed())),
        CorpusMember("x-ray", ratio_controlled_bytes(member_size, 0.92,
                                                     seed=next_seed())),
    ]


def corpus_chunks(members: list[CorpusMember],
                  chunk_size: int) -> list[bytes]:
    """Split every member into fixed-size chunks (Figure 7's unit)."""
    chunks: list[bytes] = []
    for member in members:
        for offset in range(0, member.size - chunk_size + 1, chunk_size):
            chunks.append(member.data[offset:offset + chunk_size])
    return chunks
