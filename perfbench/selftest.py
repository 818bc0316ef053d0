"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload at the tiny size,
plain and traced, and checks that the last line names every metric of
BENCHMARK.json with its unit and reports no failure.  Then checks that a
perturbed output, and outputs that differ between two passes of one seed,
are counted as failed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import check
import run


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_printed_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            out = _last_json(proc.stdout)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{where}: correct={out['correct']} failed={out['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(n for n in want if n in got and got[n] != want[n])}")
            for name, v in out["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"ok   {where}: {len(got)} metrics, {out['attempted']} passes")
    return problems


def check_failures_counted(root: str) -> list[str]:
    """A perturbed number and a changed byte must each fail a pass."""
    problems = []
    real_campaign, real_replay = check.observe_campaign, check.observe_replay

    def perturb(tree):
        """Scale the first nonzero float in tree by 1 + 1e-4."""
        for key, v in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            if isinstance(v, float) and v != 0.0:
                tree[key] = v * (1.0 + 1e-4)
                return tree
            if isinstance(v, (dict, list)) and perturb(v) is not None:
                return tree
        return None

    for workload in run.WORKLOADS:
        before = len(problems)
        bench = run.Bench(root, workload, "tiny", seed=0)
        seed = bench.order[0]
        try:
            check.observe_campaign = lambda d: perturb(real_campaign(d))
            check.observe_replay = lambda v: perturb(real_replay(v))
            if bench.pass_(seed) is not None or bench.failed != 1:
                problems.append(f"{workload}: a perturbed output was not counted as failed")
            check.observe_campaign, check.observe_replay = real_campaign, real_replay
            bench.digests[seed] = "0" * 64
            if bench.pass_(seed) is not None or bench.failed != 2:
                problems.append(f"{workload}: differing bytes were not counted as failed")
        finally:
            check.observe_campaign, check.observe_replay = real_campaign, real_replay
            bench.close()
        if len(problems) == before:
            print(f"ok   {workload}: perturbed and differing outputs counted as failed")
    for ref in (0.123456789, 8.9e-9):
        if check.mismatch(ref * (1 + 1e-9), ref) or not check.mismatch(ref * (1 + 1e-4), ref):
            problems.append(f"tolerance does not separate a 1e-9 from a 1e-4 change of {ref}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_printed_metrics(spec) + check_failures_counted(root)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
