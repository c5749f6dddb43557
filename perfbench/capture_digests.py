"""Record the reference output digests the benchmark checks against.

Usage, from the repository root, at the commit whose outputs are the
reference (the parent of a change under test)::

    python3 perfbench/capture_digests.py

Runs every workload once for the default and the held-out seed and
rewrites ``perfbench/reference_digests.json``.  A change that is meant
to keep simulated outputs identical must leave these digests matching;
only a change that deliberately alters the modelled system re-records
them, and says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference_digests.json"


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import bench_workloads

    document = json.loads(REFERENCE.read_text())
    seeds = (document["default_seed"], document["held_out_seed"])
    digests: dict[str, dict[str, str]] = {}
    for name, cls in bench_workloads.WORKLOADS.items():
        digests[name] = {}
        for seed in seeds:
            workload = cls(seed)
            outcome = workload.execute(workload.prepare())
            if outcome.errors:
                print(f"{name} seed {seed}: {outcome.errors}",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = outcome.digest
            print(f"{name:18s} seed {seed:<4d} {outcome.digest}")
    document["digests"] = digests
    REFERENCE.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
