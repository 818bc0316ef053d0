"""trfocus benchmark: campaign throughput, set-up cost and per-layer time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/trfocus).
Workloads:

  sub6_grid        `trfocus run --preset sub6ghz` on the 31-point grid with
                   8 Tx and perfect CSI: 248 CIR syntheses per trial, so
                   channel synthesis and the trial pool dominate.
  subthz_fig4      `trfocus reproduce fig4`: three back-to-back 1-Tx subTHz
                   campaigns, two of them parallel, whose TR loops synthesize
                   the same ensembles, plus the serial no-TR baseline.
  ensemble_replay  library traffic with no synthesis on the clock: fixtures
                   are built and saved before timing; the timed part loads
                   them, sounds, builds TR banks, propagates and measures
                   every grid target, and runs one 31-user TRDMA link.

BENCHMARK.json lists subthz_fig4 and ensemble_replay; sub6_grid's spread
between runs on a shared 2-vCPU host is too wide for its bounds.

Every campaign or replay pass runs in a fresh interpreter (child.py), so
each yields one sample of set-up time, peak RSS and CPU.  Passes repeat
until --seconds have elapsed.  Replay passes take turns on each allowed
core and time each fixture as a chunk; a metric is the median over each
core's samples, averaged over the cores (see run_value).  Inputs
come from a pool of workload seeds whose reference outputs were recorded
from the seed commit; --seed picks the order in which the pool is used.
The second pass repeats the first pass's seed and must match it byte for
byte.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
traced passes of the same seed (plus, for the campaigns, a plain
TRFOCUS_THREADS=1 pass as the serial baseline) and prints the per-layer
metrics, the tracing overhead and the pool speed-up.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402

SEED_POOL = tuple(range(8))
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"

# Trials per campaign pass, or ensembles per replay pass.
SIZES = {
    "full": {"sub6_grid": 4, "subthz_fig4": 12, "ensemble_replay": 8},
    "tiny": {"sub6_grid": 1, "subthz_fig4": 1, "ensemble_replay": 1},
}
WORKLOADS = tuple(SIZES["full"])
CAMPAIGN_ARGV = {"sub6_grid": ["run", "--preset", "sub6ghz"], "subthz_fig4": ["reproduce", "fig4"]}
# Items per unit of size: fig4 runs three loops of the given trial count
# (two TR campaigns and the baseline); a replayed ensemble has one item per
# point of the 31-point sub6ghz grid.
ITEMS_PER_UNIT = {"sub6_grid": 1, "subthz_fig4": 3, "ensemble_replay": 31}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cpu_s_per_item": "s",
}


def layer_units() -> dict:
    """Unit of every per-layer metric the traced run prints."""
    import child

    units = {f"{n}.self_s": "s" for n in child.TIMED_LAYERS}
    units.update({f"{n}.calls": "count" for n in child.CALL_COUNTED})
    units.update({f"metrics.{n}.self_s": "s" for n in child.METRIC_FUNCS})
    units.update({
        "channel.cirs": "count",
        "channel.synth_ms_per_cir": "ms",
        "channel.build_ensemble.unique_ratio": "ratio",
        "channel.load_ensemble.bytes": "bytes",
        "experiment.write_outputs.bytes": "bytes",
        "metrics.self_s": "s",
        "metrics.valid_ratio": "ratio",
        "experiment.run_trials.parallel_efficiency": "ratio",
        "experiment.run_trials.pool_speedup": "x",
        "experiment.workers": "count",
        "cli.import_s": "s",
        "cli.config_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.coverage": "ratio",
    })
    return units


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, root: str, workload: str, size: str, seed: int, record: bool = False):
        self.root = root
        self.workload = workload
        self.size = SIZES[size][workload]
        self.order = random.Random(seed).sample(SEED_POOL, len(SEED_POOL))
        # Replay fixtures are built once per run, so a run replays one seed.
        if workload == "ensemble_replay":
            self.order = self.order[:1]
        # The cores of one host can run at different speeds for minutes at
        # a time, so the single-process replay passes take turns on each
        # allowed core, one core per pass; the campaigns' pools use them all.
        self.cpus = [None]
        if workload == "ensemble_replay":
            self.cpus = sorted(os.sched_getaffinity(0))
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{os.getpid()}")
        self.reference = None
        self.observed: dict = {}
        if not record:
            with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
                self.reference = json.load(fh)["workloads"][workload][size]
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.fixtures: dict = {}
        self.n_children = 0

    def close(self) -> None:
        """Remove this run's work directory, and the shared one once empty."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    # -- children ---------------------------------------------------------

    def _start(self, request: dict, env: dict) -> tuple:
        self.n_children += 1
        cdir = os.path.join(self.work, f"p{self.n_children:03d}")
        os.makedirs(cdir)
        request = dict(request, root=self.root, result=os.path.join(cdir, "result.json"))
        req_path = os.path.join(cdir, "request.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(request, fh)
        with open(os.path.join(cdir, "stderr.txt"), "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), req_path],
                cwd=cdir, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
        return proc, request["result"], cdir, t_spawn

    def _finish(self, started: tuple) -> tuple[dict | None, str, float]:
        """Wait for a child; its result, or None when it failed."""
        proc, result_path, cdir, t_spawn = started
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(os.path.join(cdir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            return None, cdir, t_spawn
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), cdir, t_spawn

    def _env(self, threads: int | None) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "TRFOCUS_THREADS"}
        if threads is not None:
            env["TRFOCUS_THREADS"] = str(threads)
        return env

    def _fixture_paths(self, pool_seed: int) -> list[str]:
        """Build one seed's replay fixtures, split over one process per core."""
        if pool_seed not in self.fixtures:
            n_procs = min(2, os.cpu_count() or 1)
            started = [
                self._start(
                    {
                        "mode": "fixtures",
                        "fixture_dir": os.path.join(self.work, f"fixtures-{pool_seed}"),
                        "pool_seed": pool_seed,
                        "indices": list(range(i, self.size, n_procs)),
                    },
                    self._env(None),
                )
                for i in range(n_procs)
            ]
            results = [self._finish(s)[0] for s in started]
            if any(r is None for r in results):
                raise RuntimeError("building the replay fixtures failed")
            self.fixtures[pool_seed] = sorted(p for r in results for p in r["paths"])
        return self.fixtures[pool_seed]

    def _request(self, pool_seed: int, trace: bool) -> dict:
        if self.workload not in CAMPAIGN_ARGV:
            return {"mode": "replay", "trace": trace, "pool_seed": pool_seed,
                    "fixtures": self._fixture_paths(pool_seed)}
        argv = CAMPAIGN_ARGV[self.workload] + [
            "--trials", str(self.size), "--seed", str(pool_seed), "--outdir", "out"]
        return {"mode": "campaign", "trace": trace, "argv": argv}

    def expected_items(self) -> int:
        return self.size * ITEMS_PER_UNIT[self.workload]

    def pass_(self, pool_seed: int, trace: bool = False, threads: int | None = None,
              cpu: int | None = None) -> dict | None:
        """One checked pass, pinned to one core if cpu is given; returns its
        sample, or None if it failed."""
        request = dict(self._request(pool_seed, trace), cpu=cpu)
        self.attempted += 1
        result, cdir, t_spawn = self._finish(self._start(request, self._env(threads)))
        error = None
        if result is None:
            error = "child process failed"
        elif result["rc"] != 0:
            error = f"trfocus exited with {result['rc']}"
        else:
            if request["mode"] == "campaign":
                outdir = os.path.join(cdir, "out")
                observed = check.observe_campaign(outdir)
                digest = check.tree_digest(outdir)
            else:
                observed = check.observe_replay(result["values"])
                digest = check.values_digest(result["values"])
                if result["items"] != self.expected_items():
                    error = f"replayed {result['items']} items"
            if self.reference is None:
                self.observed[str(pool_seed)] = observed
            else:
                error = error or check.mismatch(observed, self.reference[str(pool_seed)])
            known = self.digests.setdefault(pool_seed, digest)
            if error is None and known != digest:
                error = "outputs differ from an earlier pass with the same seed"
        shutil.rmtree(os.path.join(cdir, "out"), ignore_errors=True)
        if error is not None:
            self.failed += 1
            sys.stderr.write(f"{self.workload} seed {pool_seed}: FAILED: {error}\n")
            return None
        wall = result["t_end"] - result["t_first"]
        items = self.expected_items()
        # A replay pass is timed per fixture; a campaign pass as one chunk.
        chunks = result["chunks"] or [(wall, result["cpu_item_s"], items)]
        return {
            "items_per_s": items / wall,
            "setup_s": result["t_first"] - t_spawn,
            "peak_rss_mib": result["maxrss_kib"] / 1024.0,
            "cpu_s_per_item": result["cpu_item_s"] / items,
            "chunks": {
                "items_per_s": [n / w for w, _, n in chunks],
                "cpu_s_per_item": [c / n for _, c, n in chunks],
            },
            "wall_s": wall,
            "cpu": cpu,
            "result": result,
        }

    # -- runs -------------------------------------------------------------

    def measured(self, seconds: float) -> list[dict]:
        """Plain passes until the time is up; the second repeats the first seed."""
        self._request(self.order[0], False)  # builds replay fixtures off the clock
        deadline = time.monotonic() + seconds
        samples = []
        i = 0
        while i < 2 or time.monotonic() < deadline:
            seed = self.order[0] if i < 2 else self.order[(i - 1) % len(self.order)]
            sample = self.pass_(seed, cpu=self.cpus[i % len(self.cpus)])
            if sample is not None:
                samples.append(sample)
            i += 1
        return samples

    def traced(self, seconds: float) -> tuple[dict, list[dict]]:
        """Rounds of plain, traced and (campaigns) serial passes of one seed;
        returns the per-layer metrics and the plain samples."""
        self._request(self.order[0], False)
        deadline = time.monotonic() + seconds
        plain, traced, serial = [], [], []
        i = 0
        while i < 1 or time.monotonic() < deadline:
            seed = self.order[i % len(self.order)]
            cpu = self.cpus[i % len(self.cpus)]
            plain.append(self.pass_(seed, cpu=cpu))
            traced.append(self.pass_(seed, trace=True, cpu=cpu))
            if self.workload != "ensemble_replay":
                serial.append(self.pass_(seed, threads=1))
            i += 1
        plain = [s for s in plain if s is not None]
        traced = [s for s in traced if s is not None]
        serial = [s for s in serial if s is not None]
        if not plain or not traced:
            return {}, plain
        layers = [s["result"]["layers"] for s in traced]
        metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        plain_wall = statistics.median(s["wall_s"] for s in plain)
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        metrics["experiment.run_trials.pool_speedup"] = (
            statistics.median(s["wall_s"] for s in serial) / plain_wall if serial else 0.0
        )
        metrics["experiment.workers"] = plain[0]["result"]["workers"]
        metrics["cli.import_s"] = statistics.median(s["result"]["import_s"] for s in plain)
        metrics["cli.config_s"] = statistics.median(s["result"]["config_s"] for s in plain)
        return metrics, plain


def source_identity(root: str) -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    h = hashlib.sha256()
    src = os.path.join(root, "src", "trfocus")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def environment(root: str, result: dict) -> dict:
    """Where the numbers come from.  Passes run with TRFOCUS_THREADS unset
    (the program's default) except the serial baseline, which sets 1."""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": result["workers"],
        "TRFOCUS_THREADS": os.environ.get("TRFOCUS_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **result["versions"],
        **source_identity(root),
    }


def pooled(samples: list[dict], name: str) -> list[float]:
    """Every value of a metric in the given passes: one per timed chunk for
    the throughput metrics, so a replay median spans each fixture it
    replayed, and one per pass for the others."""
    return [v for s in samples for v in s["chunks"].get(name, [s[name]])]


def run_value(samples: list[dict], name: str) -> float:
    """A run's value of a metric: the median over the passes of each core
    (all passes, for the unpinned campaigns), averaged over the cores."""
    cores = sorted({s["cpu"] for s in samples}, key=str)
    return statistics.fmean(
        statistics.median(pooled([s for s in samples if s["cpu"] == c], name)) for c in cores
    )


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    lo, hi = min(values), max(values)
    return f"n={len(values)} min={lo:.6g} max={hi:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny: one trial or ensemble per pass, for the self-test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trfocus", "cli.py")):
        print("error: run from a trfocus checkout (src/trfocus not found)", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.size, args.seed)
    try:
        if args.trace:
            metrics, samples = bench.traced(args.seconds)
            units = layer_units()
        else:
            samples = bench.measured(args.seconds)
            metrics = {name: run_value(samples, name) for name in END_TO_END_UNITS} if samples else {}
            units = END_TO_END_UNITS
    finally:
        bench.close()
    if not metrics:
        print("error: no pass of the workload succeeded", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(root, samples[0]["result"]), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {bench.attempted} passes, "
          f"{bench.failed} failed, failed_frac {bench.failed / bench.attempted:.6g}")
    for name in sorted(units):
        extra = ""
        if not args.trace:
            extra = "  per-core median, " + _spread(pooled(samples, name))
        print(f"  {name} = {metrics[name]:.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
