"""Tests for scenario configuration, sounding and the campaign runner."""

import math

import numpy as np
import pytest

from trfocus.channel import RxGrid, build_ensemble
from trfocus.errors import ConfigError, ParameterError
from trfocus.experiment import (
    PRESETS,
    ScenarioConfig,
    _grid_positions,
    config_from_preset,
    run_trials,
    sound_cirs,
    thread_count,
)
from trfocus.signalops import inband_nmse_db


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

    def test_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("TRFOCUS_THREADS", "2")
        assert thread_count() == 2
        for bad in ("zero", "0", "-3"):
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
        for a, est in enumerate(estimates):
            nmse = inband_nmse_db(
                est.taps,
                ens.cirs[a, 1],
                config.cavity.bandwidth_hz,
                config.cavity.sample_rate_hz,
            )
            assert nmse < -40.0

    def test_noisy_sounding_tracks_snr(self):
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 4)
        estimates = sound_cirs(ens, 1, 1e-6, 30.0, np.random.default_rng(1))
        for a, est in enumerate(estimates):
            nmse = inband_nmse_db(
                est.taps,
                ens.cirs[a, 1],
                config.cavity.bandwidth_hz,
                config.cavity.sample_rate_hz,
            )
            assert nmse < -15.0

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_snr_rejected(self, snr_db):
        config = self.small_config()
        ens = build_ensemble(config.cavity, config.grid, config.n_tx, 3)
        with pytest.raises(ParameterError, match="None means noiseless"):
            sound_cirs(ens, 1, 1e-6, snr_db, np.random.default_rng(0))

    def test_sounded_trial_still_focuses(self):
        config = self.small_config(csi_mode="sounded", sounding_snr_db=30.0)
        outputs = run_trials(config)
        report = outputs[0].report
        assert report.temporal_fwhm_s is not None
        expected = 0.886 / config.cavity.bandwidth_hz
        assert report.temporal_fwhm_s == pytest.approx(expected, rel=0.5)


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
        assert [o.report.trial for o in outputs] == [0, 1, 2]
        for o in outputs:
            assert o.report.n_tx == 8
            assert o.report.seed == 9
            assert o.report.spatial_fwhm_m is None  # single-point grid
            assert o.report.peak_power_db == pytest.approx(
                10 * math.log10(8.0), abs=2.0
            )

    def test_trdma_reports_sir(self):
        config = config_from_preset(
            "mmwave", users_m=(-0.01, 0.01), target_m=-0.01, n_trials=2, seed=10
        )
        outputs = run_trials(config)
        for o in outputs:
            assert o.report.sir_db is not None and len(o.report.sir_db) == 2
            assert o.report.isi_ratio_db is not None

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
            means[bandwidth] = np.mean([o.report.temporal_fwhm_s for o in outputs])
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
            means[bandwidth] = np.mean([o.report.spatial_fwhm_m for o in outputs])
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
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.temporal_power, b.temporal_power)
            assert a.report.to_dict() == b.report.to_dict()
