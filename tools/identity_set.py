"""Write trfocus's identity set and print the sha256 of every file in it.

The set is ten campaigns, each with --trials 2 --seed 5: six `trfocus run`
configurations and `trfocus reproduce` fig2a, fig2b, fig3 and fig4.  Each
runs once at TRFOCUS_THREADS=1 and once at TRFOCUS_THREADS=3, 132 files in
all.  Every line printed is "sha256  relpath", relpath under OUT, and the
campaigns run with OUT as their working directory, so two source trees
compare with diff:

    python3 tools/identity_set.py /tmp/ids_a --src old/src > a.txt
    python3 tools/identity_set.py /tmp/ids_b > b.txt
    diff a.txt b.txt

OUT must not exist yet.  --src is the tree the campaigns import; it
defaults to the src/ next to this script.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SUB6_USERS = ["--users", "0.05", "0.10", "0.20"]
MMWAVE_USERS = ["--users", "-0.01", "0.01", "--target", "-0.01"]
SOUNDED = ["--csi", "sounded"]

CAMPAIGNS = {
    "run_sub6ghz": ["run", "--preset", "sub6ghz"],
    "run_sub6ghz_sounded": ["run", "--preset", "sub6ghz", *SOUNDED],
    "run_sub6ghz_trdma": ["run", "--preset", "sub6ghz", *SUB6_USERS],
    "run_sub6ghz_trdma_sounded": ["run", "--preset", "sub6ghz", *SUB6_USERS, *SOUNDED],
    "run_mmwave_trdma_sounded": ["run", "--preset", "mmwave", *MMWAVE_USERS, *SOUNDED],
    "run_subthz_sounded": ["run", "--preset", "subthz", *SOUNDED],
    **{f"reproduce_{fig}": ["reproduce", fig] for fig in ("fig2a", "fig2b", "fig3", "fig4")},
}

THREAD_COUNTS = (1, 3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to create for the outputs")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="source tree that holds the trfocus package",
    )
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} exists; give a new directory")
    out, src = args.out.resolve(), args.src.resolve()
    out.mkdir(parents=True)
    for threads in THREAD_COUNTS:
        env = dict(os.environ, TRFOCUS_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        for name, command in CAMPAIGNS.items():
            # The reproduce manifests list their files relative to outdir,
            # so every threads1/ file equals its threads3/ twin.
            outdir = f"threads{threads}/{name}"
            subprocess.run(
                [sys.executable, "-m", "trfocus", *command,
                 "--trials", "2", "--seed", "5", "--outdir", outdir],
                cwd=out, env=env, stdout=subprocess.DEVNULL, check=True,
            )
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
