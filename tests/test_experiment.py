"""Tests for scenario configuration, sounding and the campaign runner."""

import dataclasses
import errno
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import trfocus.cli as cli
import trfocus.experiment as experiment
from oracles import no_tr_power, sound_cirs_per_antenna
from test_cli import child_env, tree_bytes
from trfocus.channel import ChannelEnsemble, RxGrid, build_ensemble, check_ensemble_size
from trfocus.errors import (
    ConfigError,
    DegenerateProbeError,
    IllConditionedError,
    InvalidTargetError,
    ParameterError,
)
from trfocus.experiment import (
    MAX_SEED,
    MAX_TRIALS,
    MAX_WORKERS,
    PRESETS,
    ScenarioConfig,
    _grid_positions,
    config_from_preset,
    map_trials,
    run_experiment,
    run_trials,
    sound_cirs,
    thread_count,
    write_outputs,
)
from trfocus.link import check_trdma_size
from trfocus.precoding import tr_filters
from trfocus.signalops import inband_nmse_db


def outcome(fn, *args):
    """The taps fn returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


class TestPresets:
    def test_preset_carrier_frequencies(self):
        assert PRESETS["sub6ghz"].carrier_hz == 2.5e9
        assert PRESETS["mmwave"].carrier_hz == 36e9
        assert PRESETS["mmwave"].bandwidth_hz == 2e9
        assert PRESETS["subthz"].carrier_hz == 273.6e9
        assert PRESETS["subthz"].bandwidth_hz == 3e9

    def test_sub6_grid_has_31_points(self):
        grid = PRESETS["sub6ghz"].grid()
        assert len(grid) == 31
        assert grid.positions_m[0] == 0.0
        assert grid.positions_m[-1] == pytest.approx(0.30)

    def test_subthz_grid_has_21_points(self):
        grid = PRESETS["subthz"].grid()
        assert len(grid) == 21
        assert grid.positions_m[0] == pytest.approx(-0.003)
        assert grid.positions_m[-1] == pytest.approx(0.003)
        assert np.all(np.isclose(np.diff(grid.positions_m), 0.0003))

    def test_resolvable_tap_budget(self):
        for preset in PRESETS.values():
            cavity = preset.cavity()
            assert cavity.bandwidth_hz * cavity.max_delay_s >= 64
            assert cavity.bandwidth_hz * cavity.decay_time_s >= 50

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            config_from_preset("nope")


class TestScenarioConfig:
    def test_target_must_lie_on_grid(self):
        with pytest.raises(ConfigError):
            config_from_preset("sub6ghz", target_m=0.1234, n_trials=1, seed=0)

    def test_duplicate_users_rejected(self):
        with pytest.raises(ConfigError):
            config_from_preset(
                "sub6ghz", users_m=(0.10, 0.10), n_trials=1, seed=0
            )

    def test_trdma_working_set_is_bounded(self):
        # A subthz link of U users keeps 16 U (U + 639) bytes: 7 878 users
        # fit the 1 GiB budget and 7 879 do not.  Their 7 879-point grid
        # is a 1-Tx ensemble of about 115 MiB, inside its own budget.
        step = 1e-6
        grid = {"start_m": 0.0, "stop_m": 7878 * step, "step_m": step}
        users = tuple(np.round(np.arange(7879) * step, 12))
        fits = config_from_preset(
            "subthz", grid=grid, target_m=0.0, users_m=users[:-1], n_trials=1, seed=0
        )
        assert fits.user_indices == list(range(7878))
        with pytest.raises(ConfigError, match="7879 users .* budget"):
            config_from_preset(
                "subthz", grid=grid, target_m=0.0, users_m=users, n_trials=1, seed=0
            )

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            config_from_preset("sub6ghz", n_trials=0, seed=0)

    def test_bad_csi_mode(self):
        with pytest.raises(ConfigError):
            config_from_preset("sub6ghz", csi_mode="oracle", n_trials=1, seed=0)

    def test_grid_positions_builder(self):
        pos = _grid_positions(0.0, 0.30, 0.01)
        assert pos.size == 31
        pos = _grid_positions(-0.003, 0.003, 0.0003)
        assert pos.size == 21

    def test_trial_count_is_bounded(self):
        config_from_preset("subthz", n_trials=MAX_TRIALS, seed=0)
        with pytest.raises(ConfigError, match="n_trials"):
            config_from_preset("subthz", n_trials=MAX_TRIALS + 1, seed=0)

    def test_seed_is_bounded_before_anything_is_written(self, tmp_path):
        # SeedSequence takes any int >= 0, but json cannot write one of
        # more than 4 300 digits into trials.json.
        out = tmp_path / "out"
        config_from_preset("subthz", n_trials=1, seed=MAX_SEED - 1)
        for seed in (-1, MAX_SEED, 10**5000):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                run_experiment(
                    config_from_preset("subthz", n_trials=1, seed=seed, outdir=str(out))
                )
        assert not out.exists()

    def test_ensemble_budget_checked_before_allocation(self):
        # Every refusal shares check_budget's wording.
        budget = "over the 1024 MiB budget"
        # 10^6 points x 8 Tx x (320 taps + 640 bins) x 16 bytes is 114 GiB.
        # The 2L - 1 bins of the pre-check make its size a lower bound.
        grid = RxGrid(np.arange(1_000_000) * 1e-9)
        with pytest.raises(ParameterError, match=f"needs at least .* MiB, {budget}"):
            config_from_preset("sub6ghz", grid=grid, target_m=0.0)
        cavity = PRESETS["sub6ghz"].cavity()
        with pytest.raises(ParameterError, match=budget):
            build_ensemble(cavity, grid, 8, 0)
        # 7 taps take 14 bins, so 3.3e6 CIRs pass the 16 x 20-byte lower
        # bound and their exact 16 x 21 bytes are over.
        with pytest.raises(ParameterError, match=f"7 taps needs 1.06e\\+3 MiB, {budget}"):
            check_ensemble_size(1, 3_300_000, 7)
        # 1024.1 MiB rounds up, never down to a size within the budget.
        with pytest.raises(ParameterError, match=f"8192 users .* needs 1.03e\\+3 MiB, {budget}"):
            check_trdma_size(8192, 1)
        with pytest.raises(ConfigError, match="budget"):
            _grid_positions(0.0, 0.30, 1e-9)
        # The span over the step overflows to inf before any int() of it.
        for bounds in [(0.0, 0.001, 5e-324), (-1e308, 1e308, 1.0), (-1e308, 1e308, 1e300)]:
            with pytest.raises(ConfigError, match="budget"):
                _grid_positions(*bounds)
        # Sounding with a 1 s chirp at 400 MS/s: four arrays of (8 + 1) x 2^29
        # complex values are 288 GiB at the peak.
        with pytest.raises(ParameterError, match=budget):
            config_from_preset("sub6ghz", csi_mode="sounded", chirp_duration_s=1.0)
        ens = build_ensemble(cavity, RxGrid(np.array([0.0])), 8, 0)
        with pytest.raises(ParameterError, match=f"sounding 8 antennas .* {budget}"):
            sound_cirs(ens, 0, 1.0, 30.0, 0)
        for duration in (math.inf, math.nan, 1e308, 0.0):
            with pytest.raises(ParameterError, match="chirp_duration_s"):
                sound_cirs(ens, 0, duration, 30.0, 0)

    def test_size_checks_that_pass_format_nothing(self):
        # A refusal's message imports decimal, 0.3 MiB and 1-3 ms; a
        # sounded TRDMA config runs all three budget checks and fits.
        code = (
            "import sys; from trfocus.experiment import config_from_preset; "
            "config_from_preset('subthz', csi_mode='sounded', users_m=[-3e-4, 3e-4]); "
            "print('decimal' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_trials": True},
            {"n_trials": 1.5},
            {"seed": 1.5},
            {"n_tx": 2.0},
            {"n_tx": True},
            {"symbol_period_samples": 2.5},
            {"target_m": "0"},
            {"users_m": [0.0, "x"]},
            {"tx_energy": "1"},
            {"outdir": 5},
            {"bandwidth_hz": "3e9"},
            {"grid": [1, 2, 3]},
            {"bandwidth": 3e9},  # unknown key
        ],
    )
    def test_library_values_are_type_checked(self, overrides):
        config = config_from_preset("subthz", seed=np.int64(3), n_trials=np.int64(2))
        assert (config.seed, config.n_trials) == (3, 2)
        assert type(config.seed) is int and type(config.n_trials) is int
        with pytest.raises(ConfigError):
            config_from_preset("subthz", **overrides)

    @pytest.mark.parametrize("csi_mode", ["perfect", "sounded"])
    def test_tx_energy_is_bounded(self, csi_mode):
        # Inside [1e-300, 1e300] every power and dB value of a trial is
        # finite; outside, the target's peak power underflows to 0 or the
        # focusing gain overflows.
        base = dict(
            grid={"start_m": -0.0006, "stop_m": 0.0006, "step_m": 0.0003},
            users_m=(-0.0003, 0.0003), csi_mode=csi_mode, n_trials=1,
        )
        for energy in (1e-300, 1e300):
            (output,) = run_trials(config_from_preset("subthz", tx_energy=energy, **base))
            assert math.isfinite(output.peak_power_db) and math.isfinite(output.isi_ratio_db)
        for energy in (np.nextafter(1e-300, 0.0), np.nextafter(1e300, math.inf)):
            with pytest.raises(ConfigError, match="tx_energy"):
                config_from_preset("subthz", tx_energy=energy, **base)

    def test_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("TRFOCUS_THREADS", "2")
        assert thread_count() == 2
        for bad in ("zero", "0", "-3", str(MAX_WORKERS + 1)):
            monkeypatch.setenv("TRFOCUS_THREADS", bad)
            with pytest.raises(ConfigError):
                thread_count()


class TestSounding:
    def small_config(self, **kw):
        grid = RxGrid(np.array([0.08, 0.10, 0.12]))
        base = dict(grid=grid, target_m=0.10, n_trials=1, seed=5, n_tx=2)
        base.update(kw)
        return config_from_preset("sub6ghz", **base)

    def test_noiseless_sounding_recovers_inband_channel(self):
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 3)
        estimates = sound_cirs(ens, 1, 1e-6, None, np.random.default_rng(0))
        assert estimates.shape == (config.n_tx, ens.cir_length)
        for a, est in enumerate(estimates):
            nmse = inband_nmse_db(
                est,
                ens.cirs[a, 1],
                config.cavity.bandwidth_hz,
                config.cavity.sample_rate_hz,
            )
            assert nmse < -40.0

    def test_noisy_sounding_tracks_snr(self):
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 4)
        estimates = sound_cirs(ens, 1, 1e-6, 30.0, np.random.default_rng(1))
        assert estimates.shape == (config.n_tx, ens.cir_length)
        for a, est in enumerate(estimates):
            nmse = inband_nmse_db(
                est,
                ens.cirs[a, 1],
                config.cavity.bandwidth_hz,
                config.cavity.sample_rate_hz,
            )
            assert nmse < -15.0

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, -4000.0, 300.5])
    def test_non_finite_snr_rejected(self, snr_db):
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 3)
        with pytest.raises(ParameterError, match="None means noiseless"):
            sound_cirs(ens, 1, 1e-6, snr_db, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="sounding_snr_db"):
            self.small_config(csi_mode="sounded", sounding_snr_db=snr_db)

    def test_snr_bounds_give_finite_estimates(self):
        # 10 ** (-SNR / 10) overflows a float below about -3080 dB.
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 3)
        for snr_db in (-300.0, 300.0):
            self.small_config(sounding_snr_db=snr_db)
            taps = sound_cirs(ens, 1, 1e-6, snr_db, 0)
            assert np.isfinite(taps).all()

    @pytest.mark.parametrize("snr_db", [None, 30.0])
    @pytest.mark.parametrize("n_tx", [1, 8])
    def test_batched_sounding_matches_per_antenna_oracle(self, n_tx, snr_db):
        config = self.small_config(n_tx=n_tx)
        ens = build_ensemble(config.cavity, config.grid, n_tx, 12)
        for rx in range(len(config.grid)):
            fast = outcome(sound_cirs, ens, rx, 1e-6, snr_db, 40 + rx)
            slow = outcome(sound_cirs_per_antenna, ens, rx, 1e-6, snr_db, 40 + rx)
            assert fast.shape == (n_tx, ens.cir_length)
            err = np.linalg.norm(fast - slow, axis=1) / np.linalg.norm(slow, axis=1)
            assert err.max() <= 1e-12

    @pytest.mark.parametrize("snr_db", [None, 30.0])
    def test_all_zero_cir_row_matches_oracle(self, snr_db):
        config = self.small_config(n_tx=8)
        cirs = build_ensemble(config.cavity, config.grid, 8, 13).cirs.copy()
        cirs[3, 1] = 0.0
        ens = ChannelEnsemble(cirs=cirs, params=config.cavity, grid=config.grid)
        fast = outcome(sound_cirs, ens, 1, 1e-6, snr_db, 7)
        slow = outcome(sound_cirs_per_antenna, ens, 1, 1e-6, snr_db, 7)
        assert not isinstance(slow, type)
        np.testing.assert_array_equal(fast[3], slow[3])
        live = [0, 1, 2, 4, 5, 6, 7]
        err = np.linalg.norm(fast[live] - slow[live]) / np.linalg.norm(slow[live])
        assert err <= 1e-12

    def test_non_finite_taps_raise_parameter_error(self):
        # No ensemble holds a non-finite tap, so sound_cirs never sees one;
        # tr_filters rejects such taps the same way.
        config = self.small_config()
        for bad in (np.nan, np.inf):
            cirs = build_ensemble(config.cavity, config.grid, 2, 14).cirs.copy()
            cirs[1, 1, 5] = bad
            with pytest.raises(ParameterError, match="finite"):
                ChannelEnsemble(cirs=cirs, params=config.cavity, grid=config.grid)
            with pytest.raises(ParameterError, match="finite"):
                tr_filters(cirs[:, 1])

    @pytest.mark.parametrize("rx", [-1, -3, 3, 99, 1.0])
    def test_off_grid_index_raises_invalid_target(self, rx):
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 3)
        for snr_db in (None, 30.0):
            with pytest.raises(InvalidTargetError, match="grid index must be an integer"):
                sound_cirs(ens, rx, 1e-6, snr_db, 0)

    @pytest.mark.parametrize(
        "probe_samples, error",
        [(np.zeros(400), DegenerateProbeError), (np.ones(512), IllConditionedError)],
    )
    def test_degenerate_probes_raise_like_oracle(self, monkeypatch, probe_samples, error):
        # A zero probe cannot be deconvolved; a DC probe has exact spectral
        # nulls, fatal when an all-zero record makes the regularizer 0.
        config = self.small_config()
        cirs = build_ensemble(config.cavity, config.grid, 2, 15).cirs.copy()
        cirs[0, 1] = 0.0
        ens = ChannelEnsemble(cirs=cirs, params=config.cavity, grid=config.grid)
        # The cached probe of another test must not stand in for this one,
        # nor this one's for the next.
        experiment._sounding_probe.cache_clear()
        monkeypatch.setattr(experiment, "gen_chirp", lambda *args: probe_samples)
        try:
            assert outcome(sound_cirs, ens, 1, 1e-6, 30.0, 0) is error
            assert outcome(sound_cirs_per_antenna, ens, 1, 1e-6, 30.0, 0) is error
        finally:
            experiment._sounding_probe.cache_clear()

    def test_one_probe_serves_every_sounding_of_an_ensemble(self, monkeypatch):
        # 31 sub6ghz targets share one chirp; the cached spectrum gives the
        # same estimates, bit for bit, as a probe built afresh.
        config = config_from_preset("sub6ghz")
        ens = build_ensemble(config.cavity, config.grid, 2, 4)
        calls = []
        chirp = experiment.gen_chirp
        monkeypatch.setattr(experiment, "gen_chirp", lambda *a: calls.append(a) or chirp(*a))
        experiment._sounding_probe.cache_clear()
        estimates = [
            sound_cirs(ens, t, config.chirp_duration_s, 30.0, np.random.default_rng(t))
            for t in range(len(config.grid))
        ]
        assert len(calls) == 1
        for t in (0, 30):
            experiment._sounding_probe.cache_clear()
            fresh = sound_cirs(ens, t, config.chirp_duration_s, 30.0, np.random.default_rng(t))
            np.testing.assert_array_equal(fresh, estimates[t])
        assert len(calls) == 3
        assert not experiment._sounding_probe(
            config.cavity.bandwidth_hz, config.chirp_duration_s,
            config.cavity.sample_rate_hz, ens.cir_length,
        )[1].flags.writeable

    def test_sounded_trial_still_focuses(self):
        config = self.small_config(csi_mode="sounded", sounding_snr_db=30.0)
        outputs = run_trials(config)
        fwhm_s = outputs[0].temporal_fwhm_s
        assert fwhm_s is not None
        expected = 0.886 / config.cavity.bandwidth_hz
        assert fwhm_s == pytest.approx(expected, rel=0.5)


class TestRunTrials:
    def test_reports_echo_config(self):
        config = config_from_preset(
            "sub6ghz",
            grid=RxGrid(np.array([0.10])),
            target_m=0.10,
            n_trials=3,
            seed=9,
        )
        outputs = run_trials(config)
        assert [o.trial for o in outputs] == [0, 1, 2]
        for o in outputs:
            assert o.spatial_fwhm_m is None  # single-point grid
            assert o.peak_power_db == pytest.approx(
                10 * math.log10(8.0), abs=2.0
            )

    def test_trdma_reports_sir(self):
        config = config_from_preset(
            "mmwave", users_m=(-0.01, 0.01), target_m=-0.01, n_trials=2, seed=10
        )
        outputs = run_trials(config)
        for o in outputs:
            assert o.sir_db is not None and len(o.sir_db) == 2
            assert o.isi_ratio_db is not None

    def test_temporal_fwhm_scales_inversely_with_bandwidth(self):
        # Doubling B halves the ensemble-mean temporal width (+-20%).
        means = {}
        for i, bandwidth in enumerate((100e6, 200e6, 400e6)):
            config = config_from_preset(
                "sub6ghz",
                bandwidth_hz=bandwidth,
                grid=RxGrid(np.array([0.10])),
                target_m=0.10,
                n_trials=30,
                seed=50 + i,
            )
            outputs = run_trials(config)
            means[bandwidth] = np.mean([o.temporal_fwhm_s for o in outputs])
        assert means[100e6] / means[200e6] == pytest.approx(2.0, rel=0.2)
        assert means[200e6] / means[400e6] == pytest.approx(2.0, rel=0.2)

    def test_spatial_fwhm_independent_of_bandwidth(self):
        # Spatial width is set by the wavelength and aperture, not B; it
        # tracks the theory oracle's squared-correlation half-width.
        from scipy.optimize import brentq

        from trfocus.channel import SPEED_OF_LIGHT_M_S, spatial_correlation_theory

        grid = RxGrid(np.round(0.04 + 0.01 * np.arange(13), 12))
        means = {}
        for i, bandwidth in enumerate((100e6, 400e6)):
            config = config_from_preset(
                "sub6ghz",
                bandwidth_hz=bandwidth,
                grid=grid,
                target_m=0.10,
                n_trials=25,
                seed=60 + i,
            )
            outputs = run_trials(config)
            means[bandwidth] = np.mean([o.spatial_fwhm_m for o in outputs])
        assert means[100e6] == pytest.approx(means[400e6], rel=0.2)

        lam = SPEED_OF_LIGHT_M_S / 2.5e9
        theory = 2 * brentq(
            lambda dx: spatial_correlation_theory(dx, 2.5e9, math.pi) ** 2 - 0.5,
            lam / 16,
            lam / 2,
        )
        for mean in means.values():
            assert 0.75 * theory <= mean <= 1.25 * theory

    def test_thread_count_does_not_change_results(self, monkeypatch):
        config = config_from_preset(
            "subthz",
            grid=RxGrid(np.array([-0.0003, 0.0, 0.0003])),
            target_m=0.0,
            n_trials=4,
            seed=11,
        )
        monkeypatch.setenv("TRFOCUS_THREADS", "1")
        serial = run_trials(config)
        monkeypatch.setenv("TRFOCUS_THREADS", "4")
        threaded = run_trials(config)
        metrics = ("trial", "peak_power_db", "temporal_fwhm_s", "spatial_fwhm_m",
                   "focusing_gain_db", "isi_ratio_db", "sir_db", "peak_time_s")
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.temporal_power, b.temporal_power)
            np.testing.assert_array_equal(a.spatial_power, b.spatial_power)
            assert [getattr(a, m) for m in metrics] == [getattr(b, m) for m in metrics]


def seeded_trial(t, seed_seq):
    """A cheap trial: its index and the first words of its seed's stream."""
    return t, seed_seq.generate_state(4).tolist()


def serial(n_trials, seed, fn=seeded_trial):
    return [fn(t, s) for t, s in enumerate(np.random.SeedSequence(seed).spawn(n_trials))]


class TestMapTrials:
    """map_trials forks W - 1 workers, W = min(thread_count(), n_trials);
    the caller runs trials 0, W, 2W, ... and reaps every worker."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def campaign(monkeypatch, workers, n_trials=5, seed=21):
        monkeypatch.setenv("TRFOCUS_THREADS", str(workers))
        return config_from_preset("subthz", n_trials=n_trials, seed=seed)

    @pytest.mark.parametrize("n_trials", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_results_equal_serial_in_trial_order(self, monkeypatch, workers, n_trials):
        config = self.campaign(monkeypatch, workers, n_trials)
        assert map_trials(config, seeded_trial) == serial(n_trials, config.seed)

    def test_fig4_closure_outputs_equal_serial(self, monkeypatch, tmp_path):
        out = tmp_path / "fig4"
        trees = []
        for workers in ("1", "2", "3", "4"):
            monkeypatch.setenv("TRFOCUS_THREADS", workers)
            experiment.reproduce("fig4", out, seed=2, trials=5)
            trees.append(tree_bytes(out))
            shutil.rmtree(out)
        assert trees[0] and all(tree == trees[0] for tree in trees[1:])

    def test_caller_runs_trial_0(self, monkeypatch):
        config = self.campaign(monkeypatch, 2, n_trials=4)
        pids = map_trials(config, lambda t, s: os.getpid())
        assert pids[0] == pids[2] == os.getpid()
        assert pids[1] == pids[3] != os.getpid()

    def test_worker_error_is_reraised(self, monkeypatch):
        config = self.campaign(monkeypatch, 2, n_trials=4)
        caller = os.getpid()

        def fn(t, seed_seq):
            if os.getpid() != caller:
                raise ConfigError(f"trial {t} failed in a worker")
            return t

        with pytest.raises(ConfigError, match="^trial 1 failed in a worker$"):
            map_trials(config, fn)

    def test_worker_error_exits_2_through_cli(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("TRFOCUS_THREADS", "2")
        run_trial = experiment.run_trial

        def failing_trial(configs, t, seed_seq):
            if t == 1:
                raise ConfigError("trial 1 cannot run")
            return run_trial(configs, t, seed_seq)

        monkeypatch.setattr(experiment, "run_trial", failing_trial)
        code = cli.main(["run", "--preset", "subthz", "--trials", "3",
                         "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: trial 1 cannot run\n"

    def test_killed_worker_share_is_rerun(self, monkeypatch):
        config = self.campaign(monkeypatch, 3, n_trials=7)
        caller = os.getpid()

        def fn(t, seed_seq):
            if os.getpid() != caller and t == 4:
                os.kill(os.getpid(), signal.SIGKILL)
            return seeded_trial(t, seed_seq)

        assert map_trials(config, fn) == serial(7, config.seed)

    def test_unpicklable_share_is_rerun(self, monkeypatch):
        config = self.campaign(monkeypatch, 2, n_trials=4)
        caller = os.getpid()

        def fn(t, seed_seq):
            worker_only = (lambda: t) if os.getpid() != caller else None
            return seeded_trial(t, seed_seq), worker_only

        assert map_trials(config, fn) == serial(4, config.seed, fn)

    def test_failed_fork_runs_share_in_caller(self, monkeypatch):
        config = self.campaign(monkeypatch, 3, n_trials=5)

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        pids = map_trials(config, lambda t, s: (seeded_trial(t, s), os.getpid()))
        assert pids == [(trial, os.getpid()) for trial in serial(5, config.seed)]

    def test_caller_error_kills_workers(self, monkeypatch):
        config = self.campaign(monkeypatch, 3, n_trials=3)
        caller = os.getpid()

        def fn(t, seed_seq):
            if os.getpid() != caller:
                time.sleep(60)
            raise ConfigError("the caller's share failed")

        start = time.monotonic()
        with pytest.raises(ConfigError, match="caller's share"):
            map_trials(config, fn)
        assert time.monotonic() - start < 30

    def test_serial_without_fork_or_with_threads(self, monkeypatch):
        config = self.campaign(monkeypatch, 3, n_trials=4)

        def fn(t, s):
            return os.getpid()

        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert map_trials(config, fn) == [os.getpid()] * 4
        finally:
            release.set()
            other.join()
        monkeypatch.delattr(os, "fork")
        assert map_trials(config, fn) == [os.getpid()] * 4


class TestNoTrBaseline:
    @pytest.mark.parametrize("n_tx", [1, 8])
    def test_parseval_matches_time_domain_oracle(self, n_tx):
        config = config_from_preset("subthz", n_tx=n_tx, n_trials=2, seed=6)
        fast = experiment._mean_profile(config, experiment._no_tr_power(config))
        children = np.random.SeedSequence(config.seed).spawn(config.n_trials)
        slow = np.mean(
            [
                no_tr_power(
                    build_ensemble(config.cavity, config.grid, n_tx, np.random.default_rng(c)),
                    config.chirp_duration_s,
                    config.tx_energy,
                )
                for c in children
            ],
            axis=0,
        )
        assert np.max(np.abs(fast - slow) / slow) <= 1e-12

    @pytest.mark.parametrize("n_tx", [1, 8])
    def test_chirp_shorter_than_cir_matches_time_domain_oracle(self, n_tx):
        # A 10 ns chirp has 120 samples against L = 320 taps, so the
        # sounding grid (512) is shorter than 2L - 1 and the lag window
        # wraps on it.
        config = config_from_preset(
            "subthz", n_tx=n_tx, n_trials=1, seed=8, chirp_duration_s=1e-8
        )
        assert round(config.chirp_duration_s * config.cavity.sample_rate_hz) < (
            config.cavity.cir_length
        )
        ens = build_ensemble(config.cavity, config.grid, n_tx, 8)
        fast = experiment._no_tr_power(config)(ens)
        slow = no_tr_power(ens, config.chirp_duration_s, config.tx_energy)
        assert np.max(np.abs(fast - slow) / slow) <= 1e-12

    def test_fig4_file_equals_standalone_profile(self, tmp_path):
        # fig4 reads its baseline off the single trial loop; the file is
        # the one a _mean_profile campaign of its own writes.
        experiment.reproduce("fig4", tmp_path / "fig4", seed=9, trials=3)
        baseline = config_from_preset("subthz", n_trials=3, seed=9, target_m=0.0)
        alone = tmp_path / "alone.csv"
        profile = experiment._mean_profile(baseline, experiment._no_tr_power(baseline))
        experiment._write_csv(
            alone,
            "position_m,power_db",
            zip(baseline.grid.positions_m.tolist(), experiment._db_profile(profile).tolist()),
        )
        assert (tmp_path / "fig4" / "fig4_no_tr_spatial.csv").read_bytes() == alone.read_bytes()


def read_csv(path):
    """(header line, rows of string cells) of a written CSV."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header, [row.split(",") for row in rows]


def exact_floats(cells):
    """The cells as floats; each cell must be the repr of its value."""
    values = [float(cell) for cell in cells]
    assert list(cells) == [repr(v) for v in values]
    return np.array(values)


class TestWriteOutputs:
    """The files write_outputs writes hold every number as the repr of the
    float it came from, so they read back to the computed arrays exactly."""

    def test_files_read_back_to_trial_outputs(self, tmp_path):
        config = config_from_preset(
            "subthz",
            grid=RxGrid(np.array([-0.0003, 0.0, 0.0003])),
            target_m=0.0,
            n_trials=2,
            seed=3,
        )
        outputs = run_trials(config)
        summary = write_outputs(config, outputs, tmp_path)
        positions = config.grid.positions_m
        n_time = len(outputs[0].temporal_power)
        times = np.arange(n_time) / config.cavity.sample_rate_hz

        def db(power):
            return 10.0 * np.log10(np.maximum(power, 1e-300))

        header, rows = read_csv(tmp_path / "temporal_trials.csv")
        assert header == "trial,time_s,power_db"
        trial, time_s, power_db = zip(*rows)
        assert trial == ("0",) * n_time + ("1",) * n_time
        np.testing.assert_array_equal(exact_floats(time_s), np.tile(times, 2))
        np.testing.assert_array_equal(
            exact_floats(power_db), np.concatenate([db(o.temporal_power) for o in outputs])
        )

        header, rows = read_csv(tmp_path / "spatial_trials.csv")
        assert header == "trial,position_m,power_db,peak_time_s"
        trial, position_m, power_db, peak_time_s = zip(*rows)
        assert trial == ("0",) * 3 + ("1",) * 3
        np.testing.assert_array_equal(exact_floats(position_m), np.tile(positions, 2))
        np.testing.assert_array_equal(
            exact_floats(power_db), np.concatenate([db(o.spatial_power) for o in outputs])
        )
        np.testing.assert_array_equal(
            exact_floats(peak_time_s), np.repeat([o.peak_time_s for o in outputs], 3)
        )

        for name, header_line, axis, attr in (
            ("temporal_mean.csv", "time_s,power_db", times, "temporal_power"),
            ("spatial_mean.csv", "position_m,power_db", positions, "spatial_power"),
        ):
            header, rows = read_csv(tmp_path / name)
            assert header == header_line
            x, power_db = zip(*rows)
            mean = np.mean([getattr(o, attr) for o in outputs], axis=0)
            np.testing.assert_array_equal(exact_floats(x), axis)
            np.testing.assert_array_equal(exact_floats(power_db), db(mean / mean.max()))

        echo = {"fc_hz": 273.6e9, "b_hz": 3e9, "nt": 1, "seed": 3}
        records = [
            dict(
                echo,
                trial=o.trial,
                peak_power_db=o.peak_power_db,
                temporal_fwhm_s=o.temporal_fwhm_s,
                spatial_fwhm_m=o.spatial_fwhm_m,
                focusing_gain_db=o.focusing_gain_db,
                isi_ratio_db=o.isi_ratio_db,
                sir_db=o.sir_db,
            )
            for o in outputs
        ]
        assert {key: summary[key] for key in echo} == echo
        for name, obj in (
            ("trials.json", records),
            ("summary.json", summary),
        ):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_numpy_integer_trial_writes_the_same_files(self, tmp_path):
        # The trial index is written as a Python int in trials.json, as in
        # the CSV rows, so a numpy integer index is no JSON error.
        config = config_from_preset(
            "subthz", grid=RxGrid(np.array([-0.0003, 0.0, 0.0003])), target_m=0.0
        )
        (output,) = run_trials(config)
        assert type(output.trial) is int
        output_np = dataclasses.replace(output, trial=np.int64(0))
        write_outputs(config, [output], tmp_path / "int")
        write_outputs(config, [output_np], tmp_path / "int64")
        files = tree_bytes(tmp_path / "int")
        assert "trials.json" in files and tree_bytes(tmp_path / "int64") == files

    def test_writer_peak_memory_holds_one_trial(self, tmp_path):
        # 200 subthz-shaped trials of 639 time samples and 21 positions.
        # The writer holds one trial's rows at a time, about 0.3 MiB;
        # campaign-length CSV columns would take about 12 MiB.
        config = config_from_preset("subthz", n_trials=200)
        rng = np.random.default_rng(7)
        outputs = [
            experiment.TrialOutput(
                trial=t,
                peak_power_db=0.0,
                temporal_fwhm_s=None,
                spatial_fwhm_m=None,
                focusing_gain_db=None,
                isi_ratio_db=None,
                sir_db=None,
                spatial_power=rng.random(len(config.grid)),
                temporal_power=rng.random(2 * config.cavity.cir_length - 1),
                peak_time_s=np.float64(t / 7),  # a numpy scalar prints as a float
            )
            for t in range(config.n_trials)
        ]
        tracemalloc.start()
        try:
            write_outputs(config, outputs, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
        header, rows = read_csv(tmp_path / "spatial_trials.csv")
        assert len(rows) == 200 * 21
        assert rows[-1][0] == "199" and rows[-1][3] == repr(199 / 7)


class TestReproduce:
    def test_manifest_bytes_do_not_depend_on_the_outdir(self, tmp_path):
        # The manifest lists its files relative to the outdir.
        manifests = []
        for outdir in (tmp_path / "a", tmp_path / "deeper" / "b"):
            experiment.reproduce("fig2a", outdir.resolve(), seed=1, trials=1)
            manifests.append((outdir / "fig2a_manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["files"] == ["fig2a_spatial.csv"]

    def test_unknown_figure_or_outdir_raises_config_error(self, tmp_path, monkeypatch):
        # An int outdir is no file descriptor here, and nothing is written.
        monkeypatch.chdir(tmp_path)
        for figure in (10**5000, None, np.ones(3), "fig9"):
            with pytest.raises(ConfigError, match="unknown figure id"):
                experiment.reproduce(figure, tmp_path)
        for outdir in (5, None, 10**5000, b"out"):
            with pytest.raises(ConfigError, match="outdir"):
                experiment.reproduce("fig3", outdir)
        # A bad seed or trial count is refused before outdir is created.
        for kwargs in (dict(seed=-1), dict(seed=10**5000), dict(trials=0), dict(trials=1.0)):
            with pytest.raises(ConfigError, match="seed|n_trials"):
                experiment.reproduce("fig3", "outA", **kwargs)
        assert not any(tmp_path.iterdir())
