"""Experiment driver: presets, seeded Monte-Carlo campaigns, file output.

Three presets mirror the bench setups: ``sub6ghz`` (2.5 GHz, full-sphere
diffuse field), ``mmwave`` (36 GHz, 2 GHz bandwidth, 40 deg arrival cone)
and ``subthz`` (273.6 GHz, 3 GHz bandwidth, 35 deg cone calibrated so the
spatial focus width is about one wavelength).  Decay and delay spans are
sized for >= 64 resolvable in-band taps; all randomness is derived from
one root seed so runs are byte-reproducible at any worker count.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .channel import (
    ENSEMBLE_BUDGET_BYTES,
    CavityParams,
    ChannelEnsemble,
    RxGrid,
    _check_int,
    _check_path,
    _check_real,
    _generator,
    _sig3,
    _spectrum_length,
    build_ensemble,
    check_budget,
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
from .link import check_trdma_size, focus_field, trdma_link
from .metrics import (
    _db_profile, _power_db, focusing_gain, isi_ratio, sir, spatial_profile, temporal_fwhm,
)
from .precoding import tr_filters
from .signalops import gen_chirp

THREADS_ENV_VAR = "TRFOCUS_THREADS"

# Most trials one campaign may run; every trial's profiles stay in memory
# until the output files are written.
MAX_TRIALS = 100_000

# Seeds lie in [0, MAX_SEED).  SeedSequence takes any int >= 0, but json
# refuses to write an int of more than 4 300 digits into trials.json.
MAX_SEED = 2**128

# Most processes TRFOCUS_THREADS may ask map_trials to run trials in.
MAX_WORKERS = 64

# Largest |sounding SNR| in dB, so that 10 ** (SNR / 10) stays finite.
MAX_SNR_DB = 300.0
_SNR_NAME = "sounding_snr_db (None means noiseless)"

# Delay-window and decay sizing shared by all presets, in units of 1/B:
# the window holds 72 resolvable taps and the power decay constant 64.
_SPAN_TAPS = 72
_DECAY_TAPS = 64


@dataclass(frozen=True)
class Preset:
    carrier_hz: float
    bandwidth_hz: float
    n_tx: int
    aperture_half_angle_rad: float
    grid_start_m: float
    grid_stop_m: float
    grid_step_m: float
    target_m: float

    def cavity(self, bandwidth_hz: float | None = None) -> CavityParams:
        b = bandwidth_hz if bandwidth_hz is not None else self.bandwidth_hz
        _check_real("bandwidth_hz", b, 0.0, error=ConfigError)  # the spans below divide by it
        return CavityParams(
            carrier_hz=self.carrier_hz,
            bandwidth_hz=b,
            decay_time_s=_DECAY_TAPS / b,
            max_delay_s=_SPAN_TAPS / b,
            aperture_half_angle_rad=self.aperture_half_angle_rad,
        )

    def grid(self) -> RxGrid:
        return RxGrid(_grid_positions(self.grid_start_m, self.grid_stop_m, self.grid_step_m))


PRESETS: dict[str, Preset] = {
    "sub6ghz": Preset(
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
    _check_real("grid step_m", step_m, 0.0, error=ConfigError)
    if stop_m < start_m:
        raise ConfigError("grid stop must not precede start")
    steps = (stop_m - start_m) / step_m + 0.5  # inf or NaN unless stop - start is finite
    # Each point holds at least one tap and one spectrum bin of 16 bytes.
    if not steps < ENSEMBLE_BUDGET_BYTES // 32:
        raise ConfigError(f"a grid of {steps:.3g} points exceeds the ensemble memory budget")
    return np.round(start_m + step_m * np.arange(int(steps) + 1), 12)


def _deconv_grid(n_received: int) -> int:
    """The power-of-two FFT length that sounding deconvolves a record on."""
    return 1 << max(int(math.ceil(math.log2(n_received))), 0)


def _check_sounding_size(
    n_tx: int, cir_length: int, chirp_duration_s: float, sample_rate_hz: float
) -> None:
    """Raise ParameterError when the chirp duration or its sample count is
    not a real number in (0, inf) or sounding n_tx antennas with it would
    exceed ENSEMBLE_BUDGET_BYTES.  At its peak sound_cirs holds at most
    four complex arrays of (n_tx + 1) x nfft values."""
    _check_real("chirp_duration_s", chirp_duration_s, 0.0)
    samples = float(chirp_duration_s) * float(sample_rate_hz)  # inf, not a warning, on overflow
    _check_real("chirp_duration_s times the sample rate", samples)
    n_record = round(samples) + cir_length - 1
    check_budget(
        64 * (n_tx + 1) * _deconv_grid(max(n_record, 1)),
        lambda: f"sounding {n_tx} antennas with a {chirp_duration_s:g} s chirp needs",
    )


def thread_count() -> int:
    """Most processes map_trials runs trials in, the caller included:
    TRFOCUS_THREADS, an integer in [1, MAX_WORKERS], when set; otherwise
    the CPU count, at most 4."""
    cap = os.environ.get(THREADS_ENV_VAR)
    if cap is not None:
        try:
            workers = int(cap)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer") from exc
        if not 1 <= workers <= MAX_WORKERS:
            raise ConfigError(f"{THREADS_ENV_VAR} must lie in [1, {MAX_WORKERS}], got {workers}")
        return workers
    return min(4, os.cpu_count() or 1)


# The Python types of ScenarioConfig's non-float annotations; _checked refuses bools.
_FIELD_TYPES = {"int": numbers.Integral, "str": str, "RxGrid": RxGrid, "CavityParams": CavityParams}


def _checked(name: str, value, kind: str):
    """value checked against an annotation such as 'float' or 'int | None',
    and returned as a Python int, float or tuple of floats."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind == "tuple[float, ...]":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list of numbers, got {_sig3(value)}")
        return tuple(_checked(name, v, "float") for v in value)
    if kind == "float":
        _check_real(name, value, error=ConfigError)
        return float(value)
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
        raise ConfigError(f"{name} must be of type {kind}, got {_sig3(value)}")
    return int(value) if kind == "int" else value


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one seeded campaign needs; a field whose value does not
    have its annotation's type (a finite real for a float) raises ConfigError."""

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
    outdir: str = "trfocus_out"

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _checked(f.name, getattr(self, f.name), f.type))
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise ConfigError(f"n_trials must lie in [1, {MAX_TRIALS}]")
        check_ensemble_size(self.n_tx, len(self.grid), self.cavity.cir_length)
        _check_int("seed", self.seed, end=MAX_SEED, error=ConfigError)
        if self.csi_mode not in ("perfect", "sounded"):
            raise ConfigError("csi mode must be 'perfect' or 'sounded'")
        if self.csi_mode == "sounded":
            _check_sounding_size(
                self.n_tx, self.cavity.cir_length, self.chirp_duration_s,
                self.cavity.sample_rate_hz,
            )
        if self.sounding_snr_db is not None:
            _check_real(_SNR_NAME, self.sounding_snr_db, -MAX_SNR_DB, MAX_SNR_DB, "[]", ConfigError)
        _check_real("tx_energy", self.tx_energy, 1e-300, 1e300, "[]", ConfigError)
        if self.symbol_period_samples is not None and self.symbol_period_samples < 1:
            raise ConfigError("symbol_period_samples must be >= 1")
        self.target_index  # validates target on grid
        if self.users_m is not None:
            if len(self.users_m) < 2:
                raise ConfigError("TRDMA needs at least two user positions")
            try:
                check_trdma_size(len(self.users_m), self.cavity.cir_length)
            except ParameterError as exc:
                raise ConfigError(str(exc)) from None
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


# The keys of a config file: ScenarioConfig's fields, with bandwidth_hz,
# which rebuilds the preset's cavity, in place of cavity.
_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)} - {"cavity"} | {"bandwidth_hz"}
_GRID_BOUNDS = ("start_m", "stop_m", "step_m")


def config_from_preset(preset_name: str, **overrides) -> ScenarioConfig:
    """ScenarioConfig for a named preset; overrides replace preset fields.

    Overrides are ScenarioConfig fields other than ``cavity``, plus
    ``bandwidth_hz``, which rebuilds the preset's cavity at that bandwidth;
    ``grid`` may be a mapping of ``start_m``, ``stop_m`` and ``step_m``.
    Any other key, or a value of the wrong type, raises ConfigError.
    """
    if not isinstance(preset_name, str) or preset_name not in PRESETS:
        raise ConfigError(
            f"unknown preset {_sig3(preset_name)}; choose from {sorted(PRESETS)}"
        )
    unknown = set(overrides) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    preset = PRESETS[preset_name]
    bandwidth = overrides.pop("bandwidth_hz", preset.bandwidth_hz)
    grid = overrides.get("grid")
    if isinstance(grid, dict):
        if set(grid) != set(_GRID_BOUNDS):
            raise ConfigError(f"grid must be an object with keys {list(_GRID_BOUNDS)}")
        bounds = (_checked(f"grid.{k}", grid[k], "float") for k in _GRID_BOUNDS)
        overrides["grid"] = RxGrid(_grid_positions(*bounds))
    cfg = dict(
        cavity=preset.cavity(_checked("bandwidth_hz", bandwidth, "float")),
        grid=preset.grid(),
        n_tx=preset.n_tx,
        target_m=preset.target_m,
        n_trials=1,
        seed=0,
    )
    cfg.update(overrides)
    return ScenarioConfig(**cfg)


def sound_cirs(
    ensemble: ChannelEnsemble,
    rx_index: int,
    chirp_duration_s: float,
    sounding_snr_db: float | None,
    rng,
) -> np.ndarray:
    """Estimate the per-antenna CIRs at one grid position by chirp sounding,
    as an (n_tx, L) complex array.

    Each antenna's channel is probed with a linear chirp spanning the
    cavity bandwidth; the record (plus AWGN at the sounding SNR, if any)
    is deconvolved against the probe.  The regularizer is the per-bin
    noise power, or the noiseless default when sounding_snr_db is None.

    All antennas are sounded at once in the frequency domain, on the
    power-of-two grid _deconv_grid of the record length: the record
    spectrum is S*H + FFT(noise), its power comes from Parseval, and one
    Wiener division and one inverse FFT give every estimate.  The result
    equals a time-domain convolution, AWGN and Wiener deconvolution per
    antenna to rounding; the noise is drawn in the same order (per
    antenna, real then imaginary).
    """
    if sounding_snr_db is not None:
        _check_real(_SNR_NAME, sounding_snr_db, -MAX_SNR_DB, MAX_SNR_DB, "[]")
    gen = _generator(rng)
    ensemble.check_rx(rx_index)
    params = ensemble.params
    _check_sounding_size(
        ensemble.n_tx, ensemble.cir_length, chirp_duration_s, params.sample_rate_hz
    )
    probe = gen_chirp(params.bandwidth_hz, chirp_duration_s, params.sample_rate_hz)
    if np.max(np.abs(probe)) == 0.0:
        raise DegenerateProbeError("probe is identically zero")
    n_record = len(probe) + ensemble.cir_length - 1
    nfft = _deconv_grid(n_record)
    spec_probe = np.fft.fft(probe, nfft)
    mags = np.abs(spec_probe)
    probe_power = mags**2
    spec_rx = spec_probe * np.fft.fft(ensemble.cirs[:, rx_index], nfft, axis=1)
    if sounding_snr_db is None:
        epsilon = 1e-6 * float(probe_power.max())
    else:
        record_power = np.sum(np.abs(spec_rx) ** 2, axis=1, keepdims=True) / (nfft * n_record)
        sigma2 = record_power * 10.0 ** (-sounding_snr_db / 10.0)
        noise = gen.standard_normal((ensemble.n_tx, 2, n_record))
        spec_rx += np.fft.fft(
            np.sqrt(sigma2 / 2.0) * (noise[:, 0] + 1j * noise[:, 1]), nfft, axis=1
        )
        epsilon = sigma2 * n_record
        if np.any(epsilon == 0.0) and mags.min() < 1e-12 * mags.max():
            raise IllConditionedError("epsilon = 0 with near-zero probe spectrum bins")
    est = np.fft.ifft(spec_rx * np.conj(spec_probe) / (probe_power + epsilon), axis=1)
    # A copy, so that an estimate does not pin the (n_tx, nfft) buffer.
    return est[:, : ensemble.cir_length].copy()


def _bank_for_target(
    config: ScenarioConfig, ensemble: ChannelEnsemble, rx_index: int, noise_rng
) -> np.ndarray:
    if config.csi_mode == "sounded":
        cirs = sound_cirs(
            ensemble, rx_index, config.chirp_duration_s, config.sounding_snr_db, noise_rng
        )
    else:
        cirs = ensemble.cirs_at(rx_index)
    return tr_filters(cirs, config.tx_energy)


@dataclass
class TrialOutput:
    """One trial's metrics, each None where it is dropped, and profiles."""

    trial: int
    peak_power_db: float
    temporal_fwhm_s: float | None
    spatial_fwhm_m: float | None
    focusing_gain_db: float | None
    isi_ratio_db: float | None
    sir_db: list[float] | None
    spatial_power: np.ndarray | None  # linear power per grid position
    temporal_power: np.ndarray  # linear power per time sample, target row
    peak_time_s: float


# The TrialOutput fields each trials.json row holds, with the trial index
# and the config echo.
_ROW_FIELDS = ("peak_power_db", "temporal_fwhm_s", "spatial_fwhm_m",
               "focusing_gain_db", "isi_ratio_db", "sir_db")


def _unless(error: type[Exception], fn: Callable, *args):
    """fn(*args), or None when it raises error: a metric the trial's field
    does not support is dropped from that trial's record."""
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
    if len(ensemble.grid) >= 2:
        spatial_power = np.abs(fld.field[:, peak_n]) ** 2
        s_fwhm = _unless(EdgePeakError, lambda: spatial_profile(fld, peak_n).fwhm_m)
        gain_db = _unless(DegenerateBackgroundError, focusing_gain, fld, target)

    sir_db = isi_db = None
    if config.users_m is not None:
        user_idx = config.user_indices
        banks = [_bank_for_target(config, ensemble, u, sounding_rng) for u in user_idx]
        result = trdma_link(banks, ensemble, user_idx, config.symbol_period)
        sir_db = [float(v) for v in sir(result)]
        isi_db = float(np.mean(isi_ratio(result)))

    return TrialOutput(
        trial=trial,
        peak_power_db=peak_power_db,
        temporal_fwhm_s=t_fwhm,
        spatial_fwhm_m=s_fwhm,
        focusing_gain_db=gain_db,
        isi_ratio_db=isi_db,
        sir_db=sir_db,
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
    ensemble = build_ensemble(first.cavity, first.grid, first.n_tx, channel_seq)
    return [_measure_target(c, trial, ensemble, sounding_seq) for c in configs]


def _fork_share(run_share: Callable[[int], list], w: int):
    """(pid, read end of its pipe) of a forked worker that runs
    run_share(w) and writes back the pickled outcome, (True, results) or
    (False, exception); None when the pipe or the fork cannot be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12 and later warn at a fork whenever the process has
            # another OS thread, and OpenBLAS's pool is one.  That pool is
            # fork-safe: numpy's OpenBLAS imports __register_atfork and
            # exports blas_thread_shutdown_, so the pool is shut down before
            # the fork and restarted on demand after it.
            warnings.filterwarnings(
                "ignore",
                r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead "
                r"to deadlocks in the child\.",
                DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The worker ends in os._exit whatever happens, so it never
        # unwinds into the caller's stack.
        try:
            os.close(read_fd)
            try:
                outcome = (True, run_share(w))
            except Exception as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(pid: int, kill: bool = False) -> None:
    """Wait for a forked worker, after a SIGKILL when kill is set."""
    try:
        if kill:
            import signal  # about 1 ms of import, paid on this path only

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped, as when SIGCHLD is ignored


def _read_outcome(pipe) -> tuple | None:
    """The outcome a worker piped back, or None when it ended without a
    readable payload: killed, or its outcome could not be pickled."""
    with pipe:
        data = pipe.read()
    try:
        return pickle.loads(data)
    except Exception:  # truncated or empty; loads raises several types
        return None


def map_trials(
    config: ScenarioConfig, fn: Callable[[int, np.random.SeedSequence], object]
) -> list:
    """fn(t, seed_seq) for every trial t, returned in trial order.

    Trial t always receives child t of SeedSequence(config.seed), so the
    results do not depend on the worker count W = min(thread_count(),
    n_trials).  W - 1 forked workers run trials w, w + W, ... for w >= 1
    and pipe back their pickled results, while the caller runs trials
    0, W, 2W, ... itself.  A worker's exception is re-raised here.  A
    share whose worker could not be forked, or returned no readable
    payload, is rerun by the caller; a trial depends only on its seed, so
    the results are the same.  Without os.fork, or with another Python
    thread running, the trials run serially.
    """
    n_trials = config.n_trials
    children = np.random.SeedSequence(config.seed).spawn(n_trials)
    n_workers = min(thread_count(), n_trials)
    if n_workers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(t, children[t]) for t in range(n_trials)]

    def run_share(w: int) -> list:
        return [fn(t, children[t]) for t in range(w, n_trials, n_workers)]

    forked = {}
    try:
        for w in range(1, n_workers):
            worker = _fork_share(run_share, w)
            if worker is not None:
                forked[w] = worker
        shares = [run_share(0)]
        for w in range(1, n_workers):
            outcome = None
            if w in forked:
                outcome = _read_outcome(forked[w][1])
                _reap(forked.pop(w)[0])
            ok, value = outcome if outcome is not None else (True, run_share(w))
            if not ok:
                raise value
            shares.append(value)
    finally:
        for pid, pipe in forked.values():
            pipe.close()
            _reap(pid, kill=True)
    results = [None] * n_trials
    for w, share in enumerate(shares):
        results[w::n_workers] = share
    return results


def run_trials(config: ScenarioConfig) -> list[TrialOutput]:
    """All trials of a campaign, trial-parallel, deterministic ordering."""
    runs = map_trials(config, lambda t, seed_seq: run_trial((config,), t, seed_seq))
    return [outputs[0] for outputs in runs]


# ---------------------------------------------------------------------------
# File emission


def _write_csv(path, header: str, rows) -> None:
    """The header, then one line per row as the rows arrive.  A row is a
    tuple of Python scalars, one per header column, each written as its
    repr: floats round-trip exactly and ints stay ints."""
    line = ",".join(["%r"] * len(header.split(","))) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(line % row)


def _write_profile(path, header: str, coords: list[float], power: np.ndarray) -> None:
    """One (coordinate, power in dB over its peak) row per coordinate."""
    _write_csv(path, header, zip(coords, _db_profile(power).tolist()))


def _strict_json(obj):
    """obj with each non-finite float, such as a metric's +-inf sentinel,
    spelled as the string "inf", "-inf" or "nan", so the JSON written is
    strict; null already means "dropped"."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _mean_or_none(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _trial_mean(profiles: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of the per-trial profiles, summed in trial order: the bits of
    np.mean(profiles, axis=0) without stacking the profiles."""
    acc = np.zeros(profiles[0].shape)
    for profile in profiles:
        acc += profile
    return acc / len(profiles)


def write_outputs(config: ScenarioConfig, outputs: list[TrialOutput], outdir) -> dict:
    """Write per-trial CSV rows, mean profiles, trial records and the summary.

    Files: spatial_trials.csv (trial,position_m,power_db,peak_time_s),
    temporal_trials.csv (trial,time_s,power_db), spatial_mean.csv
    (position_m,power_db; normalized to its peak), temporal_mean.csv
    (time_s,power_db), trials.json, summary.json.  Each trials.json row
    and the summary carry the config echo fc_hz, b_hz, nt and seed.  The
    CSV writer holds one trial's rows at a time.  Returns the summary.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    positions = config.grid.positions_m.tolist()
    times = (np.arange(len(outputs[0].temporal_power)) / config.cavity.sample_rate_hz).tolist()

    rows = chain.from_iterable(
        zip(repeat(int(o.trial)), times, _power_db(o.temporal_power).tolist()) for o in outputs
    )
    _write_csv(out / "temporal_trials.csv", "trial,time_s,power_db", rows)
    mean_temporal = _trial_mean([o.temporal_power for o in outputs])
    _write_profile(out / "temporal_mean.csv", "time_s,power_db", times, mean_temporal)

    if outputs[0].spatial_power is not None:
        rows = chain.from_iterable(
            zip(repeat(int(o.trial)), positions, _power_db(o.spatial_power).tolist(),
                repeat(float(o.peak_time_s)))
            for o in outputs
        )
        _write_csv(out / "spatial_trials.csv", "trial,position_m,power_db,peak_time_s", rows)
        mean_spatial = _trial_mean([o.spatial_power for o in outputs])
        _write_profile(out / "spatial_mean.csv", "position_m,power_db", positions, mean_spatial)

    echo = {
        "fc_hz": config.cavity.carrier_hz,
        "b_hz": config.cavity.bandwidth_hz,
        "nt": config.n_tx,
        "seed": config.seed,
    }
    records = [
        {"trial": int(o.trial), **{name: getattr(o, name) for name in _ROW_FIELDS}, **echo}
        for o in outputs
    ]
    _write_json(out / "trials.json", _strict_json(records))

    # A trial's SIR is the mean over its users; None where it is dropped.
    sir_means = [_mean_or_none(o.sir_db or ()) for o in outputs]
    summary = _strict_json({
        **echo,
        "trials": config.n_trials,
        "mean_temporal_fwhm_s": _mean_or_none(o.temporal_fwhm_s for o in outputs),
        "mean_spatial_fwhm_m": _mean_or_none(o.spatial_fwhm_m for o in outputs),
        "mean_focusing_gain_db": _mean_or_none(o.focusing_gain_db for o in outputs),
        "mean_sir_db": _mean_or_none(sir_means),
    })
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
    cavity, grid, n_tx = config.cavity, config.grid, config.n_tx
    return _trial_mean(map_trials(config, lambda t, s: fn(build_ensemble(cavity, grid, n_tx, s))))


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


def _no_tr_power(config: ScenarioConfig) -> Callable[[ChannelEnsemble], np.ndarray]:
    """The received strength per position of an ensemble when the emitted
    filter is the raw, unreversed sounding chirp: no focusing instant
    exists, so the strength is the time-averaged received power.

    Every antenna emits the same chirp f, so the record at a position is f
    convolved with the antenna-summed CIR g.  By Wiener-Khinchin its
    energy is sum_m r_g[m] r_f[m]^* over the lags |m| < L where g's
    autocorrelation r_g lives; on the ensemble's spectrum grid of M >= 2L-1
    bins that is sum_k |G_k|^2 W_k / M, with G = sum_a spectrum[a] and W
    the real DFT_M of r_f cut to those lags.  r_f comes from one FFT pair
    on the sounding grid, built here once for every ensemble of the
    config."""
    params = config.cavity
    probe = gen_chirp(params.bandwidth_hz, config.chirp_duration_s, params.sample_rate_hz)
    filt = probe * math.sqrt(config.tx_energy / float(np.sum(np.abs(probe) ** 2)))
    length = params.cir_length
    n_out = length + filt.size - 1
    nfft = _deconv_grid(n_out)
    autocorr = np.fft.ifft(np.abs(np.fft.fft(filt, nfft)) ** 2)
    # nfft >= L + len(f) - 1, so a lag |m| < L never aliases onto another
    # lag of r_f; beyond len(f) - 1 it reads a zero of r_f.
    lags = np.arange(1 - length, length)
    n_bins = _spectrum_length(length)
    window = np.zeros(n_bins, dtype=np.complex128)
    window[lags % n_bins] = autocorr[lags % nfft]
    weights = np.fft.fft(window).real

    def power(ensemble: ChannelEnsemble) -> np.ndarray:
        # The sum comes out F-ordered; @ keeps its bytes only in C order.
        return (np.abs(ensemble.spectrum.sum(axis=0).copy()) ** 2 @ weights) / (n_bins * n_out)

    return power


def reproduce(figure_id: str, outdir, seed: int = 0, trials: int | None = None) -> dict:
    """Re-run the preset matching one of the published figures.

    fig2a: dual-target sub-6 GHz profile (targets 7.5 cm and 20 cm,
    B = 100 MHz, 8 antennas).  fig2b: single target at 10 cm, B = 400 MHz,
    temporal profile.  fig3: mmWave two-user TRDMA at +/-1 cm.  fig4:
    subTHz focusing at +/-0.9 mm (the grid points nearest 1 mm) plus the
    no-TR baseline profile.  Returns a manifest of the files written,
    each relative to outdir, so its bytes do not depend on where outdir is.
    An unknown figure id, an outdir that is not a str or os.PathLike, or a
    seed or trial count that ScenarioConfig refuses raises ConfigError
    before outdir is created.
    """
    if not isinstance(figure_id, str) or figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {_sig3(figure_id)}; choose from {FIGURE_IDS}")
    _check_path("outdir", outdir, ConfigError)
    out = Path(outdir)
    manifest: dict = {"figure": figure_id, "seed": seed, "files": []}
    if trials is None:
        trials = 50 if figure_id == "fig4" else 20

    def config(preset: str, subdir: str, **overrides) -> ScenarioConfig:
        return config_from_preset(
            preset, n_trials=trials, seed=seed, outdir=str(out / subdir), **overrides
        )

    config("subthz", ".")  # refuses a bad seed or trial count before outdir exists
    out.mkdir(parents=True, exist_ok=True)

    def profile_csv(name: str, cfg: ScenarioConfig, profile: np.ndarray) -> None:
        _write_profile(out / name, "position_m,power_db", cfg.grid.positions_m.tolist(), profile)
        manifest["files"].append(name)

    def run_files(cfg: ScenarioConfig, *names: str) -> None:
        subdir = Path(cfg.outdir).relative_to(out)
        manifest["files"].extend((subdir / name).as_posix() for name in names)

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
        baseline = config("subthz", ".", target_m=0.0)
        no_tr_power = _no_tr_power(baseline)

        # Both targets are measured on run_trial's one ensemble, so each
        # output set equals a run_experiment of its config alone; the
        # baseline's ensemble is the one _mean_profile draws for trial t.
        def trial(t: int, seed_seq: np.random.SeedSequence):
            tr_outputs = run_trial(configs, t, seed_seq)
            ensemble = build_ensemble(baseline.cavity, baseline.grid, baseline.n_tx, seed_seq)
            return tr_outputs, no_tr_power(ensemble)

        runs = map_trials(baseline, trial)
        for i, fig4 in enumerate(configs):
            write_outputs(fig4, [outputs[i] for outputs, _ in runs], fig4.outdir)
            run_files(fig4, "spatial_mean.csv")
        profile_csv("fig4_no_tr_spatial.csv", baseline, _trial_mean([p for _, p in runs]))

    _write_json(out / f"{figure_id}_manifest.json", manifest)
    return manifest
