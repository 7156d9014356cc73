#!/usr/bin/env python3
"""Record the canonical-report digest of every benchmark op.

    python3 perfbench/record_digests.py

Builds each workload's ladder for seeds 0..999, runs every distinct op once
(CLI commands through ``cli.main`` in this process) and writes
``perfbench/digests.json``.  The seeded inputs are finite sets (at most 64
edges in one draw), so 1000 seeds reach each of them.  ``run.py`` lists an op whose digest
differs from this file as changed; a changed digest is not a failure.
Run it from the root of a checkout; a failing op is reported and left out.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SEEDS = 1000


def main() -> int:
    api = W.load_api(ROOT / "src")
    table: dict[str, dict[str, str]] = {}
    bad: set[str] = set()
    for workload in W.WORKLOADS:
        seen = table.setdefault(workload, {})
        for seed in range(SEEDS):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as d:
                ops = W.build(workload, seed, api, Path(d), in_process=True)
                ctx: dict = {}
                for op in ops:
                    if op.name in seen or op.name in bad:
                        continue
                    outcome = op.check(op.run(ctx))
                    if outcome.ok or op.known_defect:
                        seen[op.name] = outcome.digest
                    else:
                        bad.add(op.name)
                        print(f"{workload} {op.name}: {outcome.detail}", file=sys.stderr)
        print(f"{workload}: {len(seen)} ops")
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
