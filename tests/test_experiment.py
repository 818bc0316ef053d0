"""Tests for scenario configuration, sounding and the campaign runner."""

import json
import math

import numpy as np
import pytest

import trfocus.experiment as experiment
from trfocus.channel import ChannelEnsemble, RxGrid, build_ensemble
from trfocus.errors import (
    ConfigError,
    DegenerateProbeError,
    IllConditionedError,
    ParameterError,
)
from trfocus.experiment import (
    MAX_TRIALS,
    PRESETS,
    ScenarioConfig,
    _grid_positions,
    config_from_preset,
    run_trials,
    sound_cirs,
    thread_count,
    write_outputs,
)
from trfocus.signalops import (
    Waveform,
    convolve,
    inband_nmse_db,
    wiener_deconvolve,
)


def sound_cirs_per_antenna(ensemble, rx_index, chirp_duration_s, sounding_snr_db, rng):
    """Oracle for sound_cirs: time-domain convolution, then AWGN, then
    wiener_deconvolve, one antenna at a time."""
    params = ensemble.params
    probe = experiment.gen_chirp(
        params.bandwidth_hz, chirp_duration_s, params.sample_rate_hz, params.carrier_hz
    )
    gen = np.random.default_rng(rng)
    estimates = []
    for a in range(ensemble.n_tx):
        cir = ensemble.cir(a, rx_index)
        rx = convolve(probe, Waveform(cir.taps, cir.sample_rate_hz, cir.carrier_hz))
        epsilon = None
        if sounding_snr_db is not None:
            power = float(np.mean(np.abs(rx.samples) ** 2))
            sigma2 = power * 10.0 ** (-sounding_snr_db / 10.0)
            noise = gen.standard_normal(len(rx)) + 1j * gen.standard_normal(len(rx))
            rx = Waveform(rx.samples + np.sqrt(sigma2 / 2.0) * noise, rx.sample_rate_hz)
            epsilon = sigma2 * len(rx)
        estimates.append(
            wiener_deconvolve(rx, probe, epsilon, cir_length=ensemble.cir_length)
        )
    return estimates


def outcome(fn, *args):
    """The taps fn returns, or the type of the error it raises."""
    try:
        return np.array([c.taps for c in fn(*args)])
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

    def test_ensemble_budget_checked_before_allocation(self):
        # 10^6 points x 8 Tx x (320 taps + 640 bins) x 16 bytes is 114 GiB.
        grid = RxGrid(np.arange(1_000_000) * 1e-9)
        with pytest.raises(ParameterError, match="budget"):
            config_from_preset("sub6ghz", grid=grid, target_m=0.0)
        cavity = PRESETS["sub6ghz"].cavity()
        with pytest.raises(ParameterError, match="budget"):
            build_ensemble(cavity, grid, 8, 0)
        with pytest.raises(ConfigError, match="budget"):
            _grid_positions(0.0, 0.30, 1e-9)

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
        ens = ChannelEnsemble(cirs=cirs, params=config.cavity, grid=config.grid, n_tx=8)
        fast = outcome(sound_cirs, ens, 1, 1e-6, snr_db, 7)
        slow = outcome(sound_cirs_per_antenna, ens, 1, 1e-6, snr_db, 7)
        assert not isinstance(slow, type)
        np.testing.assert_array_equal(fast[3], slow[3])
        live = [0, 1, 2, 4, 5, 6, 7]
        err = np.linalg.norm(fast[live] - slow[live]) / np.linalg.norm(slow[live])
        assert err <= 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_taps_raise_parameter_error(self):
        config = self.small_config()
        cirs = build_ensemble(config.cavity, config.grid, 2, 14).cirs.copy()
        cirs[1, 1, 5] = np.nan
        ens = ChannelEnsemble(cirs=cirs, params=config.cavity, grid=config.grid, n_tx=2)
        for snr_db in (None, 30.0):
            assert outcome(sound_cirs, ens, 1, 1e-6, snr_db, 0) is ParameterError
            assert outcome(sound_cirs_per_antenna, ens, 1, 1e-6, snr_db, 0) is ParameterError

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
        ens = ChannelEnsemble(cirs=cirs, params=config.cavity, grid=config.grid, n_tx=2)
        fs = config.cavity.sample_rate_hz
        monkeypatch.setattr(
            experiment, "gen_chirp", lambda *args: Waveform(probe_samples, fs, 2.5e9)
        )
        assert outcome(sound_cirs, ens, 1, 1e-6, 30.0, 0) is error
        assert outcome(sound_cirs_per_antenna, ens, 1, 1e-6, 30.0, 0) is error

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

        for name, obj in (
            ("trials.json", [o.report.to_dict() for o in outputs]),
            ("summary.json", summary),
        ):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
