"""Byte-identity guards for the codec data plane.

Every compressor output and every work counter the hardware models
consume is pinned by a sha256 digest over a fixed corpus: synthetic
Silesia members, ratio-controlled blocks, sizes 0-5, long runs and one
64 KB block.  A rewrite of the matcher, the Huffman coder or the bit IO
must reproduce these digests exactly; a diff here means a payload byte
or a counter changed.

The zstd digests are computed in a fresh interpreter, before any other
codec is built, so they pin the level presets as declared and cannot
be shifted by codecs an earlier test constructed.

To recapture after a deliberate format change, run
``PYTHONPATH=src python tests/test_codec_golden.py`` and paste the
printed table over ``GOLDEN``.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.deflate import DeflateCodec
from repro.core.dpzip_codec import DpzipCodec
from repro.core.zstd import ZstdLikeCodec
from repro.workloads.corpus import build_corpus
from repro.workloads.datagen import ratio_controlled_bytes

DEFLATE_LEVELS = (1, 2, 3, 5, 10)
ZSTD_LEVELS = (1, 3)


def golden_corpus() -> list[tuple[str, bytes]]:
    """The fixed ``(name, data)`` inputs every digest covers."""
    cases = [(m.name, m.data) for m in build_corpus(member_size=4096,
                                                     seed=7)]
    for ratio in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
        cases.append((f"ratio-{ratio}",
                      ratio_controlled_bytes(3000, ratio, seed=3)))
    for size in range(6):
        cases.append((f"size-{size}", bytes(range(97, 97 + size))))
    cases += [
        ("zeros-1000", bytes(1000)),
        ("run-a-4000", b"a" * 4000),
        ("run-ab-1500", b"ab" * 750),
        ("run-abc-999", b"abc" * 333),
        ("run-mixed", b"x" * 300 + b"yz" * 200 + b"x" * 700),
    ]
    block = build_corpus(member_size=16384)
    cases.append(("block-64k", b"".join(m.data for m in block[:4])))
    return cases


def _digest(records) -> str:
    sha = hashlib.sha256()
    for name, payload, stats in records:
        sha.update(name.encode())
        sha.update(len(payload).to_bytes(8, "little"))
        sha.update(payload)
        sha.update(json.dumps(stats, sort_keys=True).encode())
    return sha.hexdigest()


def deflate_digest(level: int) -> str:
    codec = DeflateCodec(level)
    records = []
    for name, data in golden_corpus():
        payload = codec.compress(data)
        records.append((name, payload,
                        dataclasses.asdict(codec.last_stats)))
    return _digest(records)


def dpzip_digest() -> str:
    codec = DpzipCodec()
    return _digest((name, codec.compress(data).payload, None)
                   for name, data in golden_corpus())


def zstd_digests() -> dict[str, str]:
    out = {}
    for level in ZSTD_LEVELS:
        codec = ZstdLikeCodec(level)
        records = []
        for name, data in golden_corpus():
            result = codec.compress_blocks(data)
            records.append((name, result.payload, result.matcher_stats))
        out[f"zstd-{level}"] = _digest(records)
    return out


GOLDEN = {
    "deflate-1": "109a8441d3d62a87dc73f1b61bfc1f5807e1a9b4fadd01df2226e71b052b2d7a",
    "deflate-10": "d44a6d95c38e691dce8a8b4b2788bfa9103b989cc117d8cf8819d84ca673d8ce",
    "deflate-2": "7af4e1be2fb5723e020402c30cee59c7b9c80ef46d245aeb36c36ad43f35355a",
    "deflate-3": "a8dadbdb31c44fc412b5f2b790c0a9004fc66246e9544cf205930f060d8a2513",
    "deflate-5": "81d56ca7885c256d9d69261fd62ec72bf4b18ce63755467e0d657657d3ef8b30",
    "dpzip": "0a36e3bb04094c9f6b1bbaed7485b7b6af0c016a2027674360f7184cab4472ae",
    "zstd-1": "beaa8af57c50e1a1dca6264e085e73d9ef67b610289a361e9f6ba067338eaef1",
    "zstd-3": "d53e0f76b71ceafdf1bb43d85a0ca2dd28cca1bd8991466b5554789de0699260",
}


@pytest.mark.parametrize("level", DEFLATE_LEVELS)
def test_deflate_payloads_and_stats(level):
    assert deflate_digest(level) == GOLDEN[f"deflate-{level}"]


def test_dpzip_payloads():
    assert dpzip_digest() == GOLDEN["dpzip"]


def test_zstd_payloads_and_matcher_stats_fresh_process():
    script = ("import json, test_codec_golden as g; "
              "print(json.dumps(g.zstd_digests()))")
    paths = [str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True, timeout=600)
    digests = json.loads(done.stdout.strip().splitlines()[-1])
    for key, value in digests.items():
        assert value == GOLDEN[key], key


if __name__ == "__main__":
    table = zstd_digests()  # first, before any DeflateCodec exists
    table.update({f"deflate-{lvl}": deflate_digest(lvl)
                  for lvl in DEFLATE_LEVELS})
    table["dpzip"] = dpzip_digest()
    for key in sorted(table):
        print(f'    "{key}": "{table[key]}",')
