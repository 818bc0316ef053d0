"""One measured process of the benchmark.

Started by run.py in a fresh interpreter, so that import cost, peak RSS
and CPU time belong to exactly one campaign or replay pass.  Usage:

    python3 perfbench/child.py REQUEST.json

The request names the mode (campaign, replay or fixtures), the checkout
root, where to write the result and whether to trace.  Only the
package's public entry points are called: ``trfocus.cli.main`` for the
campaigns and the library functions of README "Library use" for the
replay.  Tracing wraps functions at the names their callers look up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from tracer import Tracer

# Spans that only wait for worker threads, and the root of each process.
WAIT_SPANS = ("experiment.run_trials",)
ROOT_SPANS = ("cli.main", "replay")

TIMED_LAYERS = (
    "channel.build_ensemble",
    "channel.draw_paths",
    "channel.load_ensemble",
    "experiment.sound_cirs",
    "signalops.gen_chirp",
    "signalops.convolve",
    "signalops.wiener_deconvolve",
    "precoding.tr_filters",
    "link.focus_field",
    "link.trdma_link",
    "experiment.write_outputs",
    "experiment.run_trial",
    "experiment.reproduce",
)
CALL_COUNTED = (
    "channel.draw_paths",
    "experiment.sound_cirs",
    "signalops.gen_chirp",
    "signalops.convolve",
    "signalops.wiener_deconvolve",
    "precoding.tr_filters",
    "link.focus_field",
    "link.trdma_link",
)
METRIC_FUNCS = ("temporal_fwhm", "spatial_profile", "focusing_gain", "sir", "isi_ratio")

# Replay sounding: the chirp length and SNR of the presets' defaults.
CHIRP_S = 1e-6
SOUNDING_SNR_DB = 30.0


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class FirstItem:
    """Wall and CPU clock at the first call into the per-item pipeline."""

    def __init__(self):
        self.marks: dict = {}

    def hook(self, module, attr: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            self.now()
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def now(self) -> None:
        if "t" not in self.marks:
            self.marks.setdefault("t", (time.monotonic(), cpu_s()))


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def install_tracer(tracer: Tracer, tf) -> None:
    """Wrap the package's functions at the module attributes they are
    looked up through: the cli's bindings, the experiment module's
    globals, channel.draw_paths inside build_ensemble, and the package
    namespace used by library callers.  A missing name is skipped."""
    import trfocus.channel as channel
    import trfocus.cli as cli
    import trfocus.experiment as experiment

    def on_ensemble(span, args, kwargs, result):
        span.attrs["cirs"] = result.cirs  # hashed after the run, off the clock

    def on_load(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0])

    def on_write(span, args, kwargs, result):
        outdir = args[2] if len(args) > 2 else kwargs.get("outdir")
        span.attrs["bytes"] = _dir_bytes(outdir)

    tracer.wrap(cli, "reproduce", "experiment.reproduce")
    tracer.wrap(cli, "run_experiment", "experiment.run_experiment")
    tracer.wrap(experiment, "run_experiment", "experiment.run_experiment")
    tracer.wrap(experiment, "run_trials", "experiment.run_trials")
    tracer.wrap(experiment, "run_trial", "experiment.run_trial", trial_arg=1)
    tracer.wrap(experiment, "write_outputs", "experiment.write_outputs", on_return=on_write)
    tracer.wrap(experiment, "build_ensemble", "channel.build_ensemble", on_return=on_ensemble)
    tracer.wrap(channel, "draw_paths", "channel.draw_paths")
    for mod in (experiment, tf):
        tracer.wrap(mod, "sound_cirs", "experiment.sound_cirs")
        tracer.wrap(mod, "tr_filters", "precoding.tr_filters")
        tracer.wrap(mod, "focus_field", "link.focus_field")
        tracer.wrap(mod, "trdma_link", "link.trdma_link")
        for name in METRIC_FUNCS:
            tracer.wrap(mod, name, f"metrics.{name}")
    for name in ("gen_chirp", "convolve", "wiener_deconvolve"):
        tracer.wrap(experiment, name, f"signalops.{name}")
    tracer.wrap(tf, "load_ensemble", "channel.load_ensemble", on_return=on_load)


def layer_metrics(tracer: Tracer, workers: int) -> dict:
    """Per-layer numbers from the spans of one traced process."""
    groups = tracer.by_name()

    def self_s(name):
        return sum(s.self_s for s in groups.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in groups.get(name, ()))

    out = {f"{name}.self_s": self_s(name) for name in TIMED_LAYERS}
    out.update({f"{name}.calls": len(groups.get(name, ())) for name in CALL_COUNTED})

    ensembles = [s.attrs["cirs"] for s in groups.get("channel.build_ensemble", ())]
    n_cirs = sum(c.shape[0] * c.shape[1] for c in ensembles)
    digests = {hashlib.sha256(c.tobytes()).hexdigest() for c in ensembles}
    out["channel.cirs"] = n_cirs
    out["channel.synth_ms_per_cir"] = (
        1e3 * out["channel.build_ensemble.self_s"] / n_cirs if n_cirs else 0.0
    )
    out["channel.build_ensemble.unique_ratio"] = (
        len(digests) / len(ensembles) if ensembles else 0.0
    )
    out["channel.load_ensemble.bytes"] = attr_sum("channel.load_ensemble", "bytes")
    out["experiment.write_outputs.bytes"] = attr_sum("experiment.write_outputs", "bytes")

    metric_spans = [s for name in METRIC_FUNCS for s in groups.get(f"metrics.{name}", ())]
    for name in METRIC_FUNCS:
        out[f"metrics.{name}.self_s"] = self_s(f"metrics.{name}")
    out["metrics.self_s"] = sum(s.self_s for s in metric_spans)
    out["metrics.valid_ratio"] = (
        sum(s.ok for s in metric_spans) / len(metric_spans) if metric_spans else 0.0
    )

    trial_busy = sum(s.duration for s in groups.get("experiment.run_trial", ()))
    loop_wall = sum(s.duration for s in groups.get("experiment.run_trials", ()))
    out["experiment.run_trials.parallel_efficiency"] = (
        trial_busy / (workers * loop_wall) if loop_wall else 0.0
    )

    # Summed over threads, so pool workers running at once can push it past 1.
    root_wall = sum(s.duration for name in ROOT_SPANS for s in groups.get(name, ()))
    layer_self = sum(s.self_s for s in tracer.spans if s.name not in ROOT_SPANS + WAIT_SPANS)
    out["trace.coverage"] = layer_self / root_wall if root_wall else 0.0
    return out


def _worker_count(experiment) -> int:
    fn = getattr(experiment, "thread_count", None)
    return fn() if fn is not None else min(4, os.cpu_count() or 1)


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def replay_pass(tf, fixture_paths: list[str], sounding_seed: int) -> tuple[list, int, list]:
    """Sound, focus and measure every grid target of every fixture, then
    run one TRDMA link with every target as a user.  Also returns the wall
    and CPU time and the item count of each fixture, one chunk each."""
    results = []
    items = 0
    chunks = []
    for k, path in enumerate(fixture_paths):
        t_chunk, cpu_chunk, items_chunk = time.monotonic(), cpu_s(), items
        ens = tf.load_ensemble(path)
        n_rx = len(ens.grid)
        banks, t_fwhm, s_fwhm, gains = [], [], [], []
        for t in range(n_rx):
            rng = sounding_seed * 1_000_000 + k * 1000 + t
            cirs = tf.sound_cirs(ens, t, CHIRP_S, SOUNDING_SNR_DB, rng)
            bank = tf.tr_filters(cirs, 1.0)
            banks.append(bank)
            fld = tf.focus_field(bank, ens)
            row = fld.field[t]
            try:
                t_fwhm.append(tf.temporal_fwhm(row, fld.sample_rate_hz))
            except tf.EdgePeakError:
                t_fwhm.append(None)
            try:
                s_fwhm.append(tf.spatial_profile(fld, int((abs(row) ** 2).argmax())).fwhm_m)
            except tf.EdgePeakError:
                s_fwhm.append(None)
            try:
                gains.append(tf.focusing_gain(fld, t))
            except tf.DegenerateBackgroundError:
                gains.append(None)
            items += 1
        link = tf.trdma_link(banks, ens, list(range(n_rx)), max(1, ens.cir_length // 4))
        results.append({
            "temporal_fwhm_s": t_fwhm,
            "spatial_fwhm_m": s_fwhm,
            "focusing_gain_db": gains,
            "sir_db": [float(v) for v in tf.sir(link)],
            "isi_ratio_db": [float(v) for v in tf.isi_ratio(link)],
        })
        chunks.append((time.monotonic() - t_chunk, cpu_s() - cpu_chunk, items - items_chunk))
    return results, items, chunks


def make_fixtures(req: dict) -> dict:
    """Build the replay ensembles with the package's own build_ensemble and
    write them with save_ensemble in its default text mode."""
    import trfocus as tf

    cfg = tf.config_from_preset("sub6ghz")
    os.makedirs(req["fixture_dir"], exist_ok=True)
    paths = []
    for k in req["indices"]:
        ens = tf.build_ensemble(cfg.cavity, cfg.grid, cfg.n_tx, req["pool_seed"] * 1000 + k)
        path = os.path.join(req["fixture_dir"], f"ensemble_{k:02d}.txt")
        tf.save_ensemble(ens, path)
        paths.append(path)
    return {"paths": paths}


def measure(req: dict) -> dict:
    """Import, set up, then run one campaign or replay pass on the clock."""
    t0 = time.perf_counter()
    if req["mode"] == "campaign":
        import trfocus.cli as cli
    import trfocus as tf
    import trfocus.experiment as experiment
    import_s = time.perf_counter() - t0

    tracer = Tracer() if req["trace"] else None
    if tracer is not None:
        install_tracer(tracer, tf)
    # A campaign's first item starts at its first trial; build_ensemble is
    # the fallback should the trial loop stop calling run_trial by name.
    first = FirstItem()
    first.hook(experiment, "run_trial")
    first.hook(experiment, "build_ensemble")
    workers = _worker_count(experiment)
    root = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    result = {"rc": 0, "items": None, "chunks": None}
    t_main = time.monotonic()
    if req["mode"] == "campaign":
        with root("cli.main"):
            result["rc"] = cli.main(req["argv"])
    else:
        with root("replay"):
            first.now()
            result["values"], result["items"], result["chunks"] = replay_pass(
                tf, req["fixtures"], req["pool_seed"])
    t_end = time.monotonic()
    cpu_end = cpu_s()
    t_first, cpu_first = first.marks.get("t", (t_end, cpu_end))
    result.update({
        "t_first": t_first,
        "t_end": t_end,
        "cpu_item_s": cpu_end - cpu_first,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "import_s": import_s,
        "config_s": t_first - t_main,
        "workers": workers,
        "versions": _versions(),
    })
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, workers)
    return result


def main(request_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    if req.get("cpu") is not None:
        os.sched_setaffinity(0, {req["cpu"]})
    sys.path.insert(0, os.path.join(req["root"], "src"))
    result = make_fixtures(req) if req["mode"] == "fixtures" else measure(req)
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
