"""Experiment driver: presets, seeded Monte-Carlo campaigns, file output.

Three presets mirror the bench setups: ``sub6ghz`` (2.5 GHz, full-sphere
diffuse field), ``mmwave`` (36 GHz, 2 GHz bandwidth, 40 deg arrival cone)
and ``subthz`` (273.6 GHz, 3 GHz bandwidth, 35 deg cone calibrated so the
spatial focus width is about one wavelength).  Decay and delay spans are
sized for >= 64 resolvable in-band taps; all randomness is derived from
one root seed so runs are byte-reproducible at any thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .channel import (
    ENSEMBLE_BUDGET_BYTES,
    CavityParams,
    ChannelEnsemble,
    RxGrid,
    build_ensemble,
    check_ensemble_size,
)
from .errors import (
    ConfigError,
    DegenerateBackgroundError,
    DegenerateProbeError,
    EdgePeakError,
    IllConditionedError,
    ParameterError,
)
from .link import focus_field, trdma_link
from .metrics import (
    FocusingReport,
    focusing_gain,
    isi_ratio,
    sir,
    spatial_profile,
    temporal_fwhm,
)
from .precoding import TrFilterBank, tr_filters
from .signalops import Cir, _deconv_grid, gen_chirp

THREADS_ENV_VAR = "TRFOCUS_THREADS"

# Most trials one campaign may run; every trial's profiles stay in memory
# until the output files are written.
MAX_TRIALS = 100_000

# Delay-window and decay sizing shared by all presets, in units of 1/B:
# the window holds 72 resolvable taps and the power decay constant 64.
_SPAN_TAPS = 72
_DECAY_TAPS = 64


@dataclass(frozen=True)
class Preset:
    name: str
    carrier_hz: float
    bandwidth_hz: float
    n_tx: int
    aperture_half_angle_rad: float
    grid_start_m: float
    grid_stop_m: float
    grid_step_m: float
    target_m: float
    n_paths: int = 2000
    oversample: int = 4

    def cavity(self, bandwidth_hz: float | None = None) -> CavityParams:
        b = bandwidth_hz if bandwidth_hz is not None else self.bandwidth_hz
        return CavityParams(
            carrier_hz=self.carrier_hz,
            bandwidth_hz=b,
            decay_time_s=_DECAY_TAPS / b,
            max_delay_s=_SPAN_TAPS / b,
            aperture_half_angle_rad=self.aperture_half_angle_rad,
            n_paths=self.n_paths,
            oversample=self.oversample,
        )

    def grid(self) -> RxGrid:
        return RxGrid(_grid_positions(self.grid_start_m, self.grid_stop_m, self.grid_step_m))


PRESETS: dict[str, Preset] = {
    "sub6ghz": Preset(
        name="sub6ghz",
        carrier_hz=2.5e9,
        bandwidth_hz=100e6,
        n_tx=8,
        aperture_half_angle_rad=math.pi,
        grid_start_m=0.0,
        grid_stop_m=0.30,
        grid_step_m=0.01,
        target_m=0.10,
    ),
    "mmwave": Preset(
        name="mmwave",
        carrier_hz=36e9,
        bandwidth_hz=2e9,
        n_tx=1,
        aperture_half_angle_rad=math.radians(40.0),
        grid_start_m=-0.02,
        grid_stop_m=0.02,
        grid_step_m=0.0025,
        target_m=0.0,
    ),
    "subthz": Preset(
        name="subthz",
        carrier_hz=273.6e9,
        bandwidth_hz=3e9,
        n_tx=1,
        aperture_half_angle_rad=math.radians(35.0),
        grid_start_m=-0.003,
        grid_stop_m=0.003,
        grid_step_m=0.0003,
        target_m=0.0,
    ),
}


def _grid_positions(start_m: float, stop_m: float, step_m: float) -> np.ndarray:
    if not (math.isfinite(start_m) and math.isfinite(stop_m)):
        raise ConfigError("grid start and stop must be finite")
    if not (math.isfinite(step_m) and step_m > 0):
        raise ConfigError("grid step must be positive and finite")
    if stop_m < start_m:
        raise ConfigError("grid stop must not precede start")
    n = int(math.floor((stop_m - start_m) / step_m + 0.5)) + 1
    # Each point holds at least one tap and one spectrum bin of 16 bytes.
    if n > ENSEMBLE_BUDGET_BYTES // 32:
        raise ConfigError(f"a grid of {n} points exceeds the ensemble memory budget")
    return np.round(start_m + step_m * np.arange(n), 12)


def thread_count() -> int:
    """Worker count for trial-level parallelism: TRFOCUS_THREADS, an
    integer >= 1, when set; otherwise the CPU count, at most 4."""
    cap = os.environ.get(THREADS_ENV_VAR)
    if cap is not None:
        try:
            workers = int(cap)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer") from exc
        if workers < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1, got {workers}")
        return workers
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one seeded campaign needs."""

    cavity: CavityParams
    grid: RxGrid
    n_tx: int
    target_m: float
    n_trials: int
    seed: int
    users_m: tuple[float, ...] | None = None
    csi_mode: str = "perfect"  # "perfect" | "sounded"
    chirp_duration_s: float = 1e-6
    sounding_snr_db: float | None = 30.0
    tx_energy: float = 1.0
    symbol_period_samples: int | None = None
    preset: str | None = None
    outdir: str = "trfocus_out"

    def __post_init__(self):
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise ConfigError(f"n_trials must lie in [1, {MAX_TRIALS}]")
        if self.n_tx < 1:
            raise ConfigError("n_tx must be >= 1")
        check_ensemble_size(self.n_tx, len(self.grid), self.cavity.cir_length)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.csi_mode not in ("perfect", "sounded"):
            raise ConfigError("csi mode must be 'perfect' or 'sounded'")
        if self.csi_mode == "sounded" and not (
            math.isfinite(self.chirp_duration_s) and self.chirp_duration_s > 0
        ):
            raise ConfigError("chirp_duration_s must be positive and finite")
        if self.sounding_snr_db is not None and not math.isfinite(self.sounding_snr_db):
            raise ConfigError("sounding_snr_db must be finite; None means noiseless")
        if not (math.isfinite(self.tx_energy) and self.tx_energy > 0):
            raise ConfigError("tx_energy must be positive and finite")
        if self.symbol_period_samples is not None and self.symbol_period_samples < 1:
            raise ConfigError("symbol_period_samples must be >= 1")
        self.target_index  # validates target on grid
        if self.users_m is not None:
            if len(self.users_m) < 2:
                raise ConfigError("TRDMA needs at least two user positions")
            idx = self.user_indices
            if len(set(idx)) != len(idx):
                raise ConfigError("user positions must be distinct grid points")

    def _position_index(self, position_m: float) -> int:
        diffs = np.abs(self.grid.positions_m - position_m)
        idx = int(np.argmin(diffs))
        if not diffs[idx] <= 1e-9:  # also rejects NaN
            raise ConfigError(f"position {position_m} m does not lie on the grid")
        return idx

    @property
    def target_index(self) -> int:
        return self._position_index(self.target_m)

    @property
    def user_indices(self) -> list[int]:
        if self.users_m is None:
            return []
        return [self._position_index(u) for u in self.users_m]

    @property
    def symbol_period(self) -> int:
        if self.symbol_period_samples is not None:
            return self.symbol_period_samples
        return max(1, self.cavity.cir_length // 4)


def config_from_preset(preset_name: str, **overrides) -> ScenarioConfig:
    """ScenarioConfig for a named preset; overrides replace preset fields.

    Overrides are ScenarioConfig fields other than ``cavity``, plus
    ``bandwidth_hz``, which rebuilds the preset's cavity at that bandwidth.
    """
    if preset_name not in PRESETS:
        raise ConfigError(
            f"unknown preset {preset_name!r}; choose from {sorted(PRESETS)}"
        )
    preset = PRESETS[preset_name]
    bandwidth = overrides.pop("bandwidth_hz", None)
    grid = overrides.pop("grid", None)
    users = overrides.pop("users_m", None)
    if users is not None:
        users = tuple(float(u) for u in users)
    cfg = dict(
        cavity=preset.cavity(bandwidth),
        grid=grid if grid is not None else preset.grid(),
        n_tx=preset.n_tx,
        target_m=preset.target_m,
        users_m=users,
        n_trials=1,
        seed=0,
        preset=preset_name,
    )
    cfg.update(overrides)
    return ScenarioConfig(**cfg)


def sound_cirs(
    ensemble: ChannelEnsemble,
    rx_index: int,
    chirp_duration_s: float,
    sounding_snr_db: float | None,
    rng,
) -> list[Cir]:
    """Estimate the per-antenna CIRs at one grid position by chirp sounding.

    Each antenna's channel is probed with a linear chirp spanning the
    cavity bandwidth; the record (plus AWGN at the sounding SNR, if any)
    is deconvolved against the probe.  The regularizer is the per-bin
    noise power, or the noiseless default when sounding_snr_db is None.

    All antennas are sounded at once in the frequency domain, on the
    power-of-two grid of wiener_deconvolve: the record spectrum is
    S*H + FFT(noise), its power comes from Parseval, and one Wiener
    division and one inverse FFT give every estimate.  The result equals
    convolve, AWGN and wiener_deconvolve per antenna to rounding; the
    noise is drawn in the same order (per antenna, real then imaginary).
    """
    if sounding_snr_db is not None and not math.isfinite(sounding_snr_db):
        raise ParameterError("sounding_snr_db must be finite; None means noiseless")
    params = ensemble.params
    probe = gen_chirp(
        params.bandwidth_hz,
        chirp_duration_s,
        params.sample_rate_hz,
        params.carrier_hz,
    )
    if np.max(np.abs(probe.samples)) == 0.0:
        raise DegenerateProbeError("probe is identically zero")
    n_record = len(probe) + ensemble.cir_length - 1
    nfft = _deconv_grid(n_record)
    spec_probe = np.fft.fft(probe.samples, nfft)
    mags = np.abs(spec_probe)
    probe_power = mags**2
    spec_rx = spec_probe * np.fft.fft(ensemble.cirs[:, rx_index], nfft, axis=1)
    if sounding_snr_db is None:
        epsilon = 1e-6 * float(probe_power.max())
    else:
        record_power = np.sum(np.abs(spec_rx) ** 2, axis=1, keepdims=True) / (nfft * n_record)
        sigma2 = record_power * 10.0 ** (-sounding_snr_db / 10.0)
        noise = np.random.default_rng(rng).standard_normal((ensemble.n_tx, 2, n_record))
        spec_rx += np.fft.fft(
            np.sqrt(sigma2 / 2.0) * (noise[:, 0] + 1j * noise[:, 1]), nfft, axis=1
        )
        epsilon = sigma2 * n_record
        if np.any(epsilon == 0.0) and mags.min() < 1e-12 * mags.max():
            raise IllConditionedError("epsilon = 0 with near-zero probe spectrum bins")
    est = np.fft.ifft(spec_rx * np.conj(spec_probe) / (probe_power + epsilon), axis=1)
    return [
        Cir(taps, params.sample_rate_hz, params.carrier_hz)
        for taps in est[:, : ensemble.cir_length]
    ]


def _bank_for_target(
    config: ScenarioConfig, ensemble: ChannelEnsemble, rx_index: int, noise_rng
) -> TrFilterBank:
    if config.csi_mode == "sounded":
        cirs = sound_cirs(
            ensemble, rx_index, config.chirp_duration_s, config.sounding_snr_db, noise_rng
        )
    else:
        cirs = ensemble.cirs_at(rx_index)
    return tr_filters(cirs, config.tx_energy)


@dataclass
class TrialOutput:
    report: FocusingReport
    spatial_power: np.ndarray | None  # linear power per grid position
    temporal_power: np.ndarray  # linear power per time sample, target row
    peak_time_s: float


def _unless(error: type[Exception], fn: Callable, *args):
    """fn(*args), or None when it raises error: a metric the trial's field
    does not support is dropped from that trial's report."""
    try:
        return fn(*args)
    except error:
        return None


def _measure_target(
    config: ScenarioConfig,
    trial: int,
    ensemble: ChannelEnsemble,
    sounding_seq: np.random.SeedSequence,
) -> TrialOutput:
    """(Optional) sounding, TR and metrics at the config's target over one
    trial's ensemble.  The sounding noise comes from a fresh
    default_rng(sounding_seq), so every target measured on a shared
    ensemble sees the stream it would see in a campaign of its own."""
    sounding_rng = np.random.default_rng(sounding_seq)
    target = config.target_index
    bank = _bank_for_target(config, ensemble, target, sounding_rng)
    fld = focus_field(bank, ensemble)

    row = fld.field[target]
    power_row = np.abs(row) ** 2
    peak_n = int(np.argmax(power_row))
    peak_power_db = 10.0 * math.log10(float(power_row[peak_n]))

    t_fwhm = _unless(EdgePeakError, temporal_fwhm, row, fld.sample_rate_hz)
    spatial_power = s_fwhm = gain_db = None
    if fld.n_positions >= 2:
        spatial_power = np.abs(fld.field[:, peak_n]) ** 2
        s_fwhm = _unless(EdgePeakError, lambda: spatial_profile(fld, peak_n).fwhm_m)
        gain_db = _unless(DegenerateBackgroundError, focusing_gain, fld, target)

    sir_db = None
    isi_db = None
    if config.users_m is not None:
        user_idx = config.user_indices
        banks = [
            _bank_for_target(config, ensemble, u, sounding_rng) for u in user_idx
        ]
        result = trdma_link(banks, ensemble, user_idx, config.symbol_period)
        sir_db = [float(v) for v in sir(result)]
        isi_vals = isi_ratio(result)
        isi_db = float(np.mean(isi_vals))

    report = FocusingReport(
        peak_power_db=peak_power_db,
        temporal_fwhm_s=t_fwhm,
        spatial_fwhm_m=s_fwhm,
        focusing_gain_db=gain_db,
        isi_ratio_db=isi_db,
        sir_db=sir_db,
        carrier_hz=config.cavity.carrier_hz,
        bandwidth_hz=config.cavity.bandwidth_hz,
        n_tx=config.n_tx,
        seed=config.seed,
        trial=trial,
    )
    return TrialOutput(
        report=report,
        spatial_power=spatial_power,
        temporal_power=power_row,
        peak_time_s=peak_n / fld.sample_rate_hz,
    )


def run_trial(
    configs: Sequence[ScenarioConfig], trial: int, seed_seq: np.random.SeedSequence
) -> list[TrialOutput]:
    """One seeded realization measured at the target of each config.

    The configs share cavity, grid and n_tx, so the channel ensemble is
    drawn once, from child 0 of seed_seq; child 1 seeds the sounding.
    """
    channel_seq, sounding_seq = seed_seq.spawn(2)
    first = configs[0]
    ensemble = build_ensemble(
        first.cavity, first.grid, first.n_tx, np.random.default_rng(channel_seq)
    )
    return [_measure_target(c, trial, ensemble, sounding_seq) for c in configs]


def map_trials(
    config: ScenarioConfig, fn: Callable[[int, np.random.SeedSequence], object]
) -> list:
    """fn(t, seed_seq) for every trial t, returned in trial order.

    Trial t always receives child t of SeedSequence(config.seed), so the
    results do not depend on the worker count (see thread_count).
    """
    children = np.random.SeedSequence(config.seed).spawn(config.n_trials)
    workers = thread_count()
    if workers == 1 or config.n_trials == 1:
        return [fn(t, children[t]) for t in range(config.n_trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(config.n_trials), children))


def run_trials(config: ScenarioConfig) -> list[TrialOutput]:
    """All trials of a campaign, trial-parallel, deterministic ordering."""
    runs = map_trials(config, lambda t, seed_seq: run_trial((config,), t, seed_seq))
    return [outputs[0] for outputs in runs]


# ---------------------------------------------------------------------------
# File emission


def _write_csv(path, header: str, *columns: np.ndarray) -> None:
    """One row per index of the numpy columns, each value the repr of its
    Python scalar: floats round-trip exactly and int columns stay ints."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*(map(repr, column.tolist()) for column in columns)):
            fh.write(",".join(row) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _mean_or_none(values) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def _db_profile(mean_linear: np.ndarray) -> np.ndarray:
    ref = float(mean_linear.max())
    return 10.0 * np.log10(np.maximum(mean_linear, 1e-300) / max(ref, 1e-300))


def write_outputs(config: ScenarioConfig, outputs: list[TrialOutput], outdir) -> dict:
    """Write per-trial CSV rows, mean profiles, reports and the summary.

    Files: spatial_trials.csv (trial,position_m,power_db,peak_time_s),
    temporal_trials.csv (trial,time_s,power_db), spatial_mean.csv
    (position_m,power_db; normalized to its peak), temporal_mean.csv
    (time_s,power_db), trials.json, summary.json.  Returns the summary.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    positions = config.grid.positions_m
    trials = np.array([o.report.trial for o in outputs])

    times = np.arange(len(outputs[0].temporal_power)) / config.cavity.sample_rate_hz
    _write_csv(
        out / "temporal_trials.csv",
        "trial,time_s,power_db",
        np.repeat(trials, times.size),
        np.tile(times, len(outputs)),
        np.concatenate([10.0 * np.log10(np.maximum(o.temporal_power, 1e-300)) for o in outputs]),
    )
    mean_temporal = np.mean([o.temporal_power for o in outputs], axis=0)
    _write_csv(out / "temporal_mean.csv", "time_s,power_db", times, _db_profile(mean_temporal))

    if outputs[0].spatial_power is not None:
        _write_csv(
            out / "spatial_trials.csv",
            "trial,position_m,power_db,peak_time_s",
            np.repeat(trials, positions.size),
            np.tile(positions, len(outputs)),
            np.concatenate(
                [10.0 * np.log10(np.maximum(o.spatial_power, 1e-300)) for o in outputs]
            ),
            np.repeat([o.peak_time_s for o in outputs], positions.size),
        )
        mean_spatial = np.mean([o.spatial_power for o in outputs], axis=0)
        _write_csv(
            out / "spatial_mean.csv", "position_m,power_db", positions, _db_profile(mean_spatial)
        )

    _write_json(out / "trials.json", [o.report.to_dict() for o in outputs])

    sir_means = []
    for o in outputs:
        if o.report.sir_db is not None:
            sir_means.append(float(np.mean(o.report.sir_db)))
    summary = {
        "fc_hz": config.cavity.carrier_hz,
        "b_hz": config.cavity.bandwidth_hz,
        "nt": config.n_tx,
        "trials": config.n_trials,
        "seed": config.seed,
        "mean_temporal_fwhm_s": _mean_or_none(o.report.temporal_fwhm_s for o in outputs),
        "mean_spatial_fwhm_m": _mean_or_none(o.report.spatial_fwhm_m for o in outputs),
        "mean_focusing_gain_db": _mean_or_none(o.report.focusing_gain_db for o in outputs),
        "mean_sir_db": _mean_or_none(sir_means),
    }
    _write_json(out / "summary.json", summary)
    return summary


def run_experiment(config: ScenarioConfig) -> dict:
    """Run the campaign described by the config and write its outputs."""
    outputs = run_trials(config)
    return write_outputs(config, outputs, config.outdir)


# ---------------------------------------------------------------------------
# Figure reproduction

FIGURE_IDS = ("fig2a", "fig2b", "fig3", "fig4")


def _mean_profile(config: ScenarioConfig, fn) -> np.ndarray:
    """Trial mean of the per-position profile fn(ensemble), one fresh
    channel ensemble per trial."""

    def trial_profile(t: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
        rng = np.random.default_rng(seed_seq)
        return fn(build_ensemble(config.cavity, config.grid, config.n_tx, rng))

    acc = np.zeros(len(config.grid.positions_m))
    for profile in map_trials(config, trial_profile):
        acc += profile
    return acc / config.n_trials


def _dual_target_mean_profile(config: ScenarioConfig, targets_m: Sequence[float]) -> np.ndarray:
    """Mean spatial power profile when two TR streams are superposed."""
    indices = [config._position_index(t) for t in targets_m]
    length = config.cavity.cir_length

    def power(ensemble: ChannelEnsemble) -> np.ndarray:
        total = None
        for idx in indices:
            bank = tr_filters(ensemble.cirs_at(idx), config.tx_energy / len(indices))
            fld = focus_field(bank, ensemble)
            total = fld.field if total is None else total + fld.field
        return np.abs(total[:, length - 1]) ** 2

    return _mean_profile(config, power)


def _no_tr_mean_profile(config: ScenarioConfig) -> np.ndarray:
    """Mean received-strength profile when the emitted filter is the raw,
    unreversed sounding chirp: no focusing instant exists, so the strength
    at each position is the time-averaged received power."""
    params = config.cavity
    probe = gen_chirp(
        params.bandwidth_hz,
        config.chirp_duration_s,
        params.sample_rate_hz,
        params.carrier_hz,
    )
    filt = probe.samples * math.sqrt(config.tx_energy / probe.energy)
    n_out = params.cir_length + filt.size - 1
    nfft = scipy.fft.next_fast_len(n_out)
    spec_filt = np.fft.fft(filt, nfft)

    def power(ensemble: ChannelEnsemble) -> np.ndarray:
        spec = np.fft.fft(ensemble.cirs, nfft, axis=2) * spec_filt
        rows = np.fft.ifft(spec, axis=2)[:, :, :n_out].sum(axis=0)
        return np.mean(np.abs(rows) ** 2, axis=1)

    return _mean_profile(config, power)


def reproduce(figure_id: str, outdir, seed: int = 0, trials: int | None = None) -> dict:
    """Re-run the preset matching one of the published figures.

    fig2a: dual-target sub-6 GHz profile (targets 7.5 cm and 20 cm,
    B = 100 MHz, 8 antennas).  fig2b: single target at 10 cm, B = 400 MHz,
    temporal profile.  fig3: mmWave two-user TRDMA at +/-1 cm.  fig4:
    subTHz focusing at +/-0.9 mm (the grid points nearest 1 mm) plus the
    no-TR baseline profile.  Returns a manifest of the files written.
    """
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"figure": figure_id, "seed": seed, "files": []}
    if trials is None:
        trials = 50 if figure_id == "fig4" else 20

    def config(preset: str, subdir: str, **overrides) -> ScenarioConfig:
        return config_from_preset(
            preset, n_trials=trials, seed=seed, outdir=str(out / subdir), **overrides
        )

    def profile_csv(name: str, cfg: ScenarioConfig, profile: np.ndarray) -> None:
        path = out / name
        _write_csv(path, "position_m,power_db", cfg.grid.positions_m, _db_profile(profile))
        manifest["files"].append(str(path))

    def run_files(cfg: ScenarioConfig, *names: str) -> None:
        manifest["files"].extend(str(Path(cfg.outdir) / name) for name in names)

    if figure_id == "fig2a":
        grid = RxGrid(_grid_positions(0.0, 0.30, 0.005))
        fig2a = config("sub6ghz", ".", bandwidth_hz=100e6, grid=grid, target_m=0.075)
        profile_csv("fig2a_spatial.csv", fig2a, _dual_target_mean_profile(fig2a, (0.075, 0.20)))
        manifest["targets_m"] = [0.075, 0.20]

    elif figure_id == "fig2b":
        fig2b = config("sub6ghz", "fig2b_run", bandwidth_hz=400e6, target_m=0.10)
        run_experiment(fig2b)
        run_files(fig2b, "temporal_mean.csv", "spatial_mean.csv", "summary.json")

    elif figure_id == "fig3":
        fig3 = config("mmwave", "fig3_run", users_m=(-0.01, 0.01), target_m=-0.01)
        run_experiment(fig3)
        run_files(fig3, "trials.json", "summary.json", "temporal_mean.csv")
        manifest["users_m"] = [-0.01, 0.01]

    else:  # fig4
        configs = [
            config("subthz", f"fig4_tr_{label}", target_m=target)
            for label, target in (("neg", -0.0009), ("pos", 0.0009))
        ]
        # Both targets are measured on each trial's one ensemble; each
        # output set equals a run_experiment of its config alone.
        runs = map_trials(configs[0], lambda t, seed_seq: run_trial(configs, t, seed_seq))
        for i, fig4 in enumerate(configs):
            write_outputs(fig4, [outputs[i] for outputs in runs], fig4.outdir)
            run_files(fig4, "spatial_mean.csv")
        baseline = config("subthz", ".", target_m=0.0)
        profile_csv("fig4_no_tr_spatial.csv", baseline, _no_tr_mean_profile(baseline))

    _write_json(out / f"{figure_id}_manifest.json", manifest)
    return manifest
