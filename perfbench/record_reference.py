"""Record reference.json: the checked outputs of every pool seed.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose physics is the
reference.  It runs each workload once per pool seed, at both sizes, and
writes what check.py compares.  References are only re-recorded when the
physics is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

import check
import run


def main() -> int:
    root = os.getcwd()
    out = {
        "tolerance": {"rel": check.REL_TOL, "abs_at_zero": check.ZERO_TOL},
        "seed_pool": list(run.SEED_POOL),
        "source": run.source_identity(root),
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        for size in run.SIZES:
            bench = run.Bench(root, workload, size, seed=0, record=True)
            try:
                for pool_seed in run.SEED_POOL:
                    if bench.pass_(pool_seed) is None:
                        print(f"{workload}/{size} seed {pool_seed} failed", file=sys.stderr)
                        return 1
            finally:
                bench.close()
            out["workloads"].setdefault(workload, {})[size] = bench.observed
            print(f"recorded {workload}/{size}", file=sys.stderr)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
