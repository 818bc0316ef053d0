"""Oracle and invariant tests for the diffuse multipath channel model."""

import contextlib
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

import trfocus.channel as channel
from oracles import naive_taps
from trfocus.channel import (
    SPEED_OF_LIGHT_M_S as C,
    CavityParams,
    ChannelEnsemble,
    PathSet,
    RxGrid,
    _spectrum_length,
    _synthesize_taps,
    build_ensemble,
    draw_paths,
    load_ensemble,
    save_ensemble,
    spatial_correlation_theory,
)
from trfocus.errors import DimensionMismatchError, InvalidTargetError, ParameterError


def small_params(**kw):
    base = dict(
        carrier_hz=10e9,
        bandwidth_hz=0.5e9,
        decay_time_s=64 / 0.5e9,
        max_delay_s=64 / 0.5e9,
        aperture_half_angle_rad=math.pi,
        n_paths=400,
        oversample=2,
    )
    base.update(kw)
    return CavityParams(**base)


class TestValidation:
    def test_cavity_params(self):
        with pytest.raises(ParameterError):
            small_params(carrier_hz=0.0)
        with pytest.raises(ParameterError):
            small_params(aperture_half_angle_rad=3.5)
        with pytest.raises(ParameterError):
            small_params(n_paths=0)
        with pytest.raises(ParameterError):
            small_params(oversample=0)
        # Path and sample counts are integers: a float or a bool would
        # reach numpy as a bad shape, or build a 1x-oversampled ensemble.
        for name, value in [("n_paths", 2.5), ("n_paths", True), ("n_paths", 8.0),
                            ("oversample", True), ("oversample", 2.0), ("oversample", "4"),
                            ("oversample", np.float64(2.0))]:
            with pytest.raises(ParameterError, match=f"{name} must be an integer"):
                small_params(**{name: value})
        assert small_params(n_paths=np.int64(8), oversample=np.int32(3)).oversample == 3
        # Complex baseband needs B < 2 f_c.
        for bandwidth in (20e9, 1e20):
            with pytest.raises(ParameterError, match=r"below 2 \* carrier_hz"):
                small_params(bandwidth_hz=bandwidth, max_delay_s=1e-9)
        assert small_params(bandwidth_hz=19.9e9, max_delay_s=1e-9).bandwidth_hz == 19.9e9

    def test_delay_span_in_samples_and_carrier_cycles_must_be_finite(self):
        # At B = 1e308 the 2x-oversampled sample rate is inf; a 100 s delay
        # window at f_c = 1e307 Hz overflows the carrier phase 2 pi f_c tau.
        for kw in (dict(bandwidth_hz=1e308, max_delay_s=1.0),
                   dict(carrier_hz=1e307, max_delay_s=100.0)):
            with pytest.raises(ParameterError, match="max_delay_s times"):
                small_params(decay_time_s=1.0, **kw)

    def test_grid(self):
        with pytest.raises(ParameterError):
            RxGrid(np.array([0.0, 0.0, 1.0]))
        # Non-finite, complex or non-numeric positions are refused at once.
        for bad in ([0.0, math.inf], [math.nan], [0.0, 1j], ["0", "1"], [0.0, None]):
            with pytest.raises(ParameterError, match="positions_m"):
                RxGrid(bad)

    def test_ensemble_takes_n_tx_from_its_cirs(self):
        params, grid = small_params(max_delay_s=1e-9), RxGrid(np.array([0.0, 0.01]))
        ens = ChannelEnsemble(np.ones((3, 2, 8)), params, grid)
        assert type(ens.n_tx) is int and ens.n_tx == 3
        # A 2-D array, no antenna or a row count other than the grid's.
        for shape in ((2, 8), (0, 2, 8), (3, 1, 8), (3, 3, 8)):
            with pytest.raises(DimensionMismatchError, match="cirs must have shape"):
                ChannelEnsemble(np.ones(shape), params, grid)
        # A stale fourth argument, such as an n_tx, is refused.
        with pytest.raises(TypeError):
            ChannelEnsemble(np.ones((3, 2, 8)), params, grid, 3)


class TestDrawPaths:
    def test_shapes_dtypes_unit_directions_and_delay_range(self):
        params = small_params(n_paths=700, aperture_half_angle_rad=math.radians(35.0))
        paths = draw_paths(params, np.random.default_rng(8))
        for arr, dtype in zip(paths, [np.float64, np.float64, np.complex128]):
            assert arr.shape == (700,) and arr.dtype == dtype
        assert np.abs(paths.axial_cos).max() <= 1.0
        assert paths.delays_s.min() >= 0.0 and paths.delays_s.max() <= params.max_delay_s

    def test_seeded_reproducibility(self):
        params = small_params(n_paths=1000)
        a = draw_paths(params, np.random.default_rng(7))
        b = draw_paths(params, np.random.default_rng(7))
        np.testing.assert_array_equal(a.delays_s, b.delays_s)
        np.testing.assert_array_equal(a.axial_cos, b.axial_cos)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_full_sphere_mean_direction_vanishes(self):
        # On the full sphere the axial cosine is uniform on [-1, 1]: mean 0
        # and mean square 1/3, each within about 3 sigma at 10k paths.
        params = small_params(n_paths=10000)
        paths = draw_paths(params, np.random.default_rng(1))
        assert abs(paths.axial_cos.mean()) < 0.02
        assert np.mean(paths.axial_cos**2) == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_cap_respects_half_angle(self):
        half = math.radians(30.0)
        params = small_params(aperture_half_angle_rad=half, n_paths=5000)
        paths = draw_paths(params, np.random.default_rng(2))
        # The cap's centre is perpendicular to the grid axis.
        assert np.abs(paths.axial_cos).max() <= math.sin(half) + 1e-12

    def test_mean_energy_is_normalized(self):
        # Empirical E||h||^2 over 500 draws stays within [0.9, 1.1].
        params = small_params(n_paths=300, max_delay_s=32 / 0.5e9)
        rng = np.random.default_rng(3)
        energies = []
        for _ in range(500):
            paths = draw_paths(params, rng)
            taps = _synthesize_taps(paths, 0.0, params, params.cir_length)
            energies.append(float(np.sum(np.abs(taps) ** 2)))
        assert 0.9 <= np.mean(energies) <= 1.1


class TestSynthesizeCir:
    def test_matches_naive_double_loop(self):
        params = small_params(n_paths=40, oversample=3)
        paths = draw_paths(params, np.random.default_rng(4))
        x = 0.0123
        length = 50
        fast = _synthesize_taps(paths, x, params, length)
        slow = naive_taps(paths, x, params, length)
        assert np.linalg.norm(fast - slow) < 1e-12 * np.linalg.norm(slow)

    @pytest.mark.parametrize("oversample", [1, 3, 4])
    def test_edge_cases_match_naive_double_loop(self, oversample):
        # f_s = 2**30 Hz exactly, so a delay n / f_s lands exactly on tap n.
        params = small_params(bandwidth_hz=2.0**30 / oversample, oversample=oversample)
        fs = params.sample_rate_hz
        length = 23 if oversample == 1 else 4 * oversample + 1  # not a multiple
        on_grid = np.array([0.0, 2.0, 5.0, 11.0, 12.0])
        tiny_frac = np.array([3.0 + 1e-10, 7.0 - 3e-9, 9.0 + 5e-11])
        past_end = np.array([length + 2.0, length - 0.7, length + 0.5e-9])
        generic = np.array([1.37, 6.5, 10.81])
        centers = np.concatenate([on_grid, tiny_frac, past_end, generic])
        delays = centers / fs
        assert np.array_equal(delays[:5] * fs, on_grid)
        # Half the paths arrive along the grid axis and move with the
        # receiver by x / c; the others arrive broadside and stay put.
        axial_cos = np.where(np.arange(centers.size) % 2 == 0, 1.0, 0.0)
        amps = np.exp(1j * np.arange(centers.size)) * (1.0 + 0.1 * np.arange(centers.size))
        paths = PathSet(delays, axial_cos, amps)
        # Shifts of whole and fractional taps, pushing k below 0 and past Q.
        for shift_taps in (0.0, -3.0, 4.0, -0.25, 2.0 + 1e-10):
            x = shift_taps * C / fs
            fast = _synthesize_taps(paths, x, params, length)
            slow = naive_taps(paths, x, params, length)
            assert np.linalg.norm(fast - slow) < 1e-12 * np.linalg.norm(slow), shift_taps

    def test_on_grid_path_gives_kronecker_delta(self):
        # One path exactly on the tap grid at oversample 1: single tap,
        # neighbors land on exact sinc zeros.
        params = small_params(n_paths=1, oversample=1)
        fs = params.sample_rate_hz
        tau = 12.0 / fs
        amp = 0.7 - 0.2j
        paths = PathSet(np.array([tau]), np.array([0.0]), np.array([amp]))
        taps = _synthesize_taps(paths, 0.0, params, 64)
        expected = amp * np.exp(-2j * np.pi * params.carrier_hz * tau)
        assert abs(taps[12] - expected) < 1e-9
        others = np.delete(taps, 12)
        assert np.abs(others).max() < 1e-9

    def test_purity(self):
        params = small_params(n_paths=64)
        paths = draw_paths(params, np.random.default_rng(5))
        a = _synthesize_taps(paths, 0.0, params, params.cir_length)
        b = _synthesize_taps(paths, 0.0, params, params.cir_length)
        np.testing.assert_array_equal(a, b)

    def test_decorrelation_at_ten_wavelengths(self):
        params = small_params(n_paths=2000)
        paths = draw_paths(params, np.random.default_rng(6))
        lam = params.wavelength_m
        h0 = _synthesize_taps(paths, 0.0, params, params.cir_length)
        h1 = _synthesize_taps(paths, 10 * lam, params, params.cir_length)
        corr = abs(np.vdot(h0, h1)) / (np.linalg.norm(h0) * np.linalg.norm(h1))
        assert corr < 0.2


class TestBuildEnsemble:
    def test_sub6_shape(self):
        params = CavityParams(
            carrier_hz=2.5e9,
            bandwidth_hz=100e6,
            decay_time_s=64 / 100e6,
            max_delay_s=72 / 100e6,
            n_paths=500,
        )
        grid = RxGrid(np.round(0.01 * np.arange(31), 12))
        ens = build_ensemble(params, grid, 8, np.random.default_rng(0))
        assert ens.cirs.shape == (8, 31, params.cir_length)
        assert ens.sample_rate_hz == pytest.approx(400e6)

    def test_minimal_ensemble(self):
        params = small_params(n_paths=16)
        ens = build_ensemble(params, RxGrid(np.array([0.0])), 1, 0)
        assert ens.cirs.shape == (1, 1, params.cir_length)

    @pytest.mark.parametrize("reach_samples", [2.0**54, 1e19])
    def test_grid_beyond_exact_tap_indices_is_refused(self, reach_samples):
        # _sinc_mix casts each path's delay in samples to int64; a grid point
        # 2**53 or more samples of delay from the origin is refused first.
        params = small_params(n_paths=16)
        far = reach_samples * C / params.sample_rate_hz
        with pytest.raises(ParameterError, match=r"2\*\*53"):
            build_ensemble(params, RxGrid(np.array([0.0, far])), 1, 0)
        with pytest.raises(ParameterError, match=r"2\*\*53"):
            build_ensemble(params, RxGrid(np.array([-far, 0.0])), 1, 0)

    def test_seed_determinism_bit_exact(self):
        params = small_params(n_paths=64)
        grid = RxGrid(np.array([0.0, 0.005, 0.01]))
        a = build_ensemble(params, grid, 2, 42)
        b = build_ensemble(params, grid, 2, 42)
        np.testing.assert_array_equal(a.cirs, b.cirs)

    def test_spectrum_is_cached_and_read_only(self):
        params = small_params()
        ens = build_ensemble(params, RxGrid(np.array([0.0, 0.01])), 2, 3)
        spec = ens.spectrum
        assert spec is ens.spectrum
        assert not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0, 0, 0] = 1.0
        nfft = scipy.fft.next_fast_len(2 * ens.cir_length - 1)
        np.testing.assert_array_equal(spec, np.fft.fft(ens.cirs, nfft, axis=2))
        # cirs_at is a read-only (n_tx, L) view of cirs, not a copy.
        for rx in range(2):
            taps = ens.cirs_at(rx)
            np.testing.assert_array_equal(taps, ens.cirs[:, rx])
            assert taps.shape == (2, ens.cir_length) and np.shares_memory(taps, ens.cirs)
            with pytest.raises(ValueError):
                taps[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(1, 1, 5), (3, 2, 17), (2, 5, 40)])
    def test_spectrum_is_a_view_of_its_frequency_major_copy(self, shape):
        n_tx, n_rx, length = shape
        rng = np.random.default_rng(length)
        taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        params = small_params(max_delay_s=length / 1e9)
        ens = ChannelEnsemble(taps, params, RxGrid(0.01 * np.arange(n_rx)))
        nfft = _spectrum_length(length)
        assert ens.spectrum.shape == (n_tx, n_rx, nfft)
        np.testing.assert_array_equal(ens.spectrum, np.fft.fft(ens.cirs, nfft, axis=2))
        fm = ens.spectrum.transpose(2, 0, 1)
        assert fm.shape == (nfft, n_tx, n_rx) and fm.flags.c_contiguous
        for spec in (ens.spectrum, fm):
            assert not spec.flags.writeable
            with pytest.raises(ValueError):
                spec[0, 0, 0] = 1.0

    @pytest.mark.parametrize("rx", [-1, -3, 3, 99, 1.0, True, np.True_])
    def test_cirs_at_off_grid_raises_invalid_target(self, rx):
        ens = build_ensemble(small_params(n_paths=16), RxGrid(np.array([0.0, 0.01, 0.02])), 2, 5)
        with pytest.raises(InvalidTargetError, match="grid index must be an integer"):
            ens.cirs_at(rx)

    def test_spectrum_length_is_scipy_next_fast_len(self):
        # The smallest 2*3*5*7*11-smooth n >= 2L-1, as scipy defines it for
        # complex input, so every spectrum keeps scipy's FFT length.
        for length in range(1, 10_000):
            assert _spectrum_length(length) == scipy.fft.next_fast_len(2 * length - 1), length


class TestSpatialCorrelationTheory:
    def test_zero_lag(self):
        assert spatial_correlation_theory(0.0, 2.5e9, math.pi) == 1.0

    def test_half_wavelength_null_full_sphere(self):
        lam = C / 2.5e9
        assert abs(spatial_correlation_theory(lam / 2, 2.5e9, math.pi)) < 1e-12

    def test_half_power_width_is_0p443_lambda(self):
        # Root-find |rho|^2 = 1/2; the full width should be 0.4429 lambda
        # (sin(u)/u magnitude-squared reaches 1/2 at u = 1.39156).
        fc = 2.5e9
        lam = C / fc

        def f(dx):
            return spatial_correlation_theory(dx, fc, math.pi) ** 2 - 0.5

        half = brentq(f, lam / 8, lam / 2)
        assert 2 * half == pytest.approx(0.443 * lam, rel=5e-3)

    def test_cone_matches_drawn_directions(self):
        # The model's field correlation is the mean of exp(j k dx u_p) over
        # the axial cosines draw_paths makes; 200k of them give a
        # standard error below 0.0016.  The paraxial 2 J1(v)/v misses it by
        # 0.016 and 0.028 at the two longer lags.
        fc, theta = 36e9, math.radians(40.0)
        params = small_params(carrier_hz=fc, aperture_half_angle_rad=theta, n_paths=200_000)
        along = draw_paths(params, 3).axial_cos
        k = 2 * math.pi * fc / C
        for dx in (0.002, 0.004, 0.008):
            drawn = float(np.mean(np.cos(k * dx * along)))
            assert spatial_correlation_theory(dx, fc, theta) == pytest.approx(drawn, abs=0.006)

    @pytest.mark.parametrize("lag_wavelengths", [0.1, 0.3, 0.7, 3.3, 40.0])
    def test_narrow_cone_approaches_jinc(self, lag_wavelengths):
        # sin(theta) of a cone of half-angle 1 mrad is near-uniform on the
        # projected disc, whose average of J0 is 2 J1(v)/v.
        from scipy.special import j1

        fc, theta = 10e9, 1e-3
        dx = lag_wavelengths * C / fc
        v = (2 * math.pi * fc / C) * dx * math.sin(theta)
        expected = 2 * j1(v) / v
        assert spatial_correlation_theory(dx, fc, theta) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("lag_wavelengths", [0.1, 0.3, 0.7, 3.3, 40.0])
    def test_continuous_across_90_degrees(self, lag_wavelengths):
        # A hemisphere averages J0(z sin(theta)) sin(theta) to sin(z)/z,
        # and the apertures on either side of it stay within 1e-8.
        fc = 10e9
        dx = lag_wavelengths * C / fc
        z = 2 * math.pi * fc / C * dx
        at = spatial_correlation_theory(dx, fc, math.pi / 2)
        assert at == pytest.approx(math.sin(z) / z, abs=1e-14)
        for eps in (1e-9, 1e-6):
            below = spatial_correlation_theory(dx, fc, math.pi / 2 - eps)
            above = spatial_correlation_theory(dx, fc, math.pi / 2 + eps)
            assert abs(below - at) <= 4 * eps and abs(above - at) <= 4 * eps

    def test_wide_cap_quadrature_approaches_sphere(self):
        fc = 10e9
        lam = C / fc
        for dx in (0.1 * lam, 0.7 * lam, 1.9 * lam):
            full = spatial_correlation_theory(dx, fc, math.pi)
            wide = spatial_correlation_theory(dx, fc, math.pi - 1e-6)
            assert wide == pytest.approx(full, abs=1e-5)

    @pytest.mark.parametrize(
        "dx, fc, match",
        [(math.nan, 1e9, "delta_x_m"), (math.inf, 1e9, "delta_x_m"), (0.01, math.nan, "carrier_hz"),
         (0.01, math.inf, "carrier_hz"), (1e300, 1e300, "delta_x_m"), (1e12, 1e9, "budget")],
        ids=["nan_dx", "inf_dx", "nan_fc", "inf_fc", "overflowing_k_dx", "huge_dx"],
    )
    def test_unsizable_inputs_raise_parameter_error(self, dx, fc, match):
        # 1e12 m at 1 GHz would take 3.3e11 quadrature panels, hundreds of
        # TiB; the budget refuses them before any is allocated.
        with pytest.raises(ParameterError, match=match):
            spatial_correlation_theory(dx, fc, 0.5)


class TestEnsembleStatistics:
    def test_empirical_correlation_matches_theory(self):
        # Pooled correlation over 200 realizations vs the closed form,
        # full sphere, lags 0..2 lambda.
        params = small_params(n_paths=400, max_delay_s=32 / 0.5e9)
        lam = params.wavelength_m
        lags = lam * np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
        grid = RxGrid(lags)
        cross = np.zeros(len(lags), dtype=complex)
        norms = np.zeros(len(lags))
        rng = np.random.default_rng(10)
        for _ in range(200):
            ens = build_ensemble(params, grid, 1, rng)
            h = ens.cirs[0]
            cross += h @ np.conj(h[0])
            norms += np.sum(np.abs(h) ** 2, axis=1)
        rho_emp = np.real(cross) / np.sqrt(norms * norms[0])
        for lag, emp in zip(lags, rho_emp):
            theory = spatial_correlation_theory(lag, params.carrier_hz, math.pi)
            assert abs(emp - theory) < 0.1

    def test_power_decay_constant_recovered(self):
        # Regressing log mean power on delay recovers decay_time_s +-25%.
        decay = 20e-9
        params = small_params(
            bandwidth_hz=1e9,
            decay_time_s=decay,
            max_delay_s=60e-9,
            n_paths=1000,
            oversample=2,
        )
        fs = params.sample_rate_hz
        grid = RxGrid(np.array([0.0]))
        rng = np.random.default_rng(11)
        acc = np.zeros(params.cir_length)
        n_real = 100
        for _ in range(n_real):
            ens = build_ensemble(params, grid, 1, rng)
            acc += np.abs(ens.cirs[0, 0]) ** 2
        acc /= n_real
        lo = int(5e-9 * fs)
        hi = int(55e-9 * fs)
        t = np.arange(lo, hi) / fs
        slope = np.polyfit(t, np.log(acc[lo:hi]), 1)[0]
        est = -1.0 / slope
        assert 0.75 * decay < est < 1.25 * decay

    def test_cross_antenna_decorrelation(self):
        params = small_params(
            max_delay_s=72 / 0.5e9, decay_time_s=64 / 0.5e9, n_paths=400
        )
        grid = RxGrid(np.array([0.0]))
        rng = np.random.default_rng(12)
        vals = []
        for _ in range(200):
            ens = build_ensemble(params, grid, 2, rng)
            h1, h2 = ens.cirs[0, 0], ens.cirs[1, 0]
            vals.append(
                abs(np.vdot(h1, h2)) / (np.linalg.norm(h1) * np.linalg.norm(h2))
            )
        assert np.mean(vals) < 0.15


class TestEnsembleExport:
    def make_small(self):
        params = small_params(n_paths=32, max_delay_s=8 / 0.5e9)
        grid = RxGrid(np.array([0.0, 0.004, 0.008]))
        return build_ensemble(params, grid, 2, 9)

    @staticmethod
    def version_1_lines(ens):
        # A version-1 file held a text body: one line of repr-formatted
        # re/im values per CIR.
        return [
            " ".join(map(repr, row.view(np.float64).tolist())).encode()
            for row in ens.cirs.reshape(-1, ens.cir_length)
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        ens = self.make_small()
        path = tmp_path / "ensemble"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        np.testing.assert_array_equal(back.cirs, ens.cirs)
        np.testing.assert_array_equal(back.grid.positions_m, ens.grid.positions_m)
        assert back.params == ens.params

    def test_header_with_a_grid_axis_loads_bit_exact(self, tmp_path):
        # Older files carry a grid.axis key; the taps already hold the
        # geometry, so load_ensemble ignores it.
        import json

        ens = self.make_small()
        path = tmp_path / "ensemble.txt"
        save_ensemble(ens, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["grid"]["axis"] = [1.0, 0.0, 0.0]
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        back = load_ensemble(path)
        np.testing.assert_array_equal(back.cirs, ens.cirs)
        np.testing.assert_array_equal(back.grid.positions_m, ens.grid.positions_m)
        assert back.params == ens.params

    def test_older_keys_load_and_a_version_1_file_is_refused(self, tmp_path):
        # Older files carry "mode" and "seed" keys, which load_ensemble
        # ignores.  A version-1 file held a text body; its version refuses
        # it, and so does a header with no version.
        import json

        ens = self.make_small()
        path = tmp_path / "ensemble"
        save_ensemble(ens, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = {**json.loads(header_line), "mode": "binary", "seed": 9}
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        back = load_ensemble(path)
        np.testing.assert_array_equal(back.cirs.view(np.int64), ens.cirs.view(np.int64))
        assert back.params == ens.params
        text = b"".join(line + b"\n" for line in self.version_1_lines(ens))
        header.update(version=1, mode="text")
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + text)
        with pytest.raises(ParameterError, match="file version 1;"):
            load_ensemble(path)
        del header["version"]
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        with pytest.raises(ParameterError, match="file version None;"):
            load_ensemble(path)

    def test_header_missing_keys_raises_parameter_error(self, tmp_path):
        path = tmp_path / "ensemble.txt"
        path.write_text('{"format": "trfocus-ensemble"}\n')
        with pytest.raises(ParameterError, match="malformed header"):
            load_ensemble(path)
        # A header with no antennas over an empty body is no ensemble.
        import json

        save_ensemble(self.make_small(), path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        header["n_tx"] = 0
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(ParameterError, match="n_tx"):
            load_ensemble(path)
        # A huge CIR length is refused before any size search.
        header.update(n_tx=1, cir_length=10**308)
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(ParameterError, match="budget"):
            load_ensemble(path)
        # Dimensions must be JSON integers.  int() would coerce or truncate
        # most of these to a shape that fits the body.
        ens = build_ensemble(self.make_small().params, RxGrid(np.array([0.0, 0.004])), 1, 9)
        save_ensemble(ens, path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        wrong_types = [
            ("n_tx", True),
            ("n_tx", 1.0),
            ("n_rx", "2"),
            ("cir_length", str(ens.cir_length)),
            ("cir_length", ens.cir_length + 0.5),
            ("cir_length", 1e308),
            ("cir_length", math.inf),
        ]
        for key, value in wrong_types:
            path.write_bytes(json.dumps({**header, key: value}).encode() + b"\n" + body)
            with pytest.raises(ParameterError, match=f"{key} must be an integer"):
                load_ensemble(path)

    def test_non_numeric_header_values_raise_parameter_error(self, tmp_path):
        import json

        path = tmp_path / "ensemble.txt"
        save_ensemble(self.make_small(), path)
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        grid = header["grid"]
        # np.array(..., dtype=float64) would read the strings and bools.
        for key, value in [("positions_m", ["0", "4e-3", "8e-3"]), ("positions_m", [0, True, 2]),
                           ("positions_m", 0.0), ("positions_m", [[0.0, 0.004, 0.008]])]:
            bad = {**header, "grid": {**grid, key: value}}
            path.write_bytes(json.dumps(bad).encode() + b"\n" + body)
            with pytest.raises(ParameterError, match="malformed header"):
                load_ensemble(path)
        for value in (True, 2.0, "2"):
            bad = {**header, "params": {**header["params"], "oversample": value}}
            path.write_bytes(json.dumps(bad).encode() + b"\n" + body)
            with pytest.raises(ParameterError, match="oversample must be an integer"):
                load_ensemble(path)

    def test_wrong_body_size_raises_parameter_error(self, tmp_path):
        path = tmp_path / "ensemble"
        save_ensemble(self.make_small(), path)
        header, body = path.read_bytes().split(b"\n", 1)
        for wrong in (body[:-1], body + b"\0", b""):  # a byte short, a byte extra, no body
            path.write_bytes(header + b"\n" + wrong)
            with pytest.raises(ParameterError, match="body is not 2x3x.* taps of 16 bytes"):
                load_ensemble(path)

    def test_header_without_newline_is_refused_after_its_limit(self, tmp_path):
        # A 64 MiB file with no newline is refused after reading 16 MiB of
        # it, not read and decoded whole (a 130 MiB peak).
        path = tmp_path / "ensemble"
        with open(path, "wb") as fh:
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="header line is over the 16 MiB limit"):
                load_ensemble(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20, peak

    def test_header_limit_holds_for_save_and_load_alike(self, tmp_path, monkeypatch):
        ens, path = self.make_small(), tmp_path / "ensemble"
        save_ensemble(ens, path)
        header_bytes = path.read_bytes().index(b"\n") + 1
        monkeypatch.setattr(channel, "_MAX_HEADER_BYTES", header_bytes)
        np.testing.assert_array_equal(load_ensemble(path).cirs, ens.cirs)
        monkeypatch.setattr(channel, "_MAX_HEADER_BYTES", header_bytes - 1)
        with pytest.raises(ParameterError, match="header line is over"):
            load_ensemble(path)
        with pytest.raises(ParameterError, match="header line is over"):
            save_ensemble(ens, tmp_path / "other")
        assert not (tmp_path / "other").exists()

    def test_non_finite_tap_raises_parameter_error(self, tmp_path):
        path = tmp_path / "ensemble"
        save_ensemble(self.make_small(), path)
        header, body = path.read_bytes().split(b"\n", 1)
        for index, value in ((0, math.nan), (7, math.inf), (-1, -math.inf)):
            values = np.frombuffer(body, dtype="<f8").copy()  # re, im of each tap
            values[index] = value
            path.write_bytes(header + b"\n" + values.tobytes())
            with pytest.raises(ParameterError, match="finite"):
                load_ensemble(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda first, rest: [first] + rest, id="well-formed"),
            pytest.param(lambda first, rest: [first, b""] + rest, id="blank-line"),
            pytest.param(lambda first, rest: [first, b" \t "] + rest, id="whitespace-line"),
            pytest.param(lambda first, rest: [b" "] * (1 + len(rest)), id="blank-body"),
            pytest.param(lambda first, rest: [first + b" # 1.0"] + rest, id="hash-token"),
            pytest.param(
                lambda first, rest: [first.replace(b" ", b"\xa0", 1)] + rest, id="bad-utf8"
            ),
            pytest.param(
                lambda first, rest: [first.rsplit(b" ", 1)[0]] + rest, id="one-value-short"
            ),
            pytest.param(lambda first, rest: [first] + rest + [first], id="extra-cir-line"),
            pytest.param(
                lambda first, rest: [first + b" " * 32 * len(first.split())] + rest,
                id="overlong-line",
            ),
        ],
    )
    def test_malformed_text_body_raises_parameter_error(self, tmp_path, corrupt):
        # A version-1 text body, well formed or not, under the current
        # header is refused by its size, never read as taps.
        ens = self.make_small()
        path = tmp_path / "ensemble"
        save_ensemble(ens, path)
        header = path.read_bytes().split(b"\n", 1)[0]
        first, *rest = self.version_1_lines(ens)
        path.write_bytes(b"\n".join([header, *corrupt(first, rest)]) + b"\n")
        with pytest.raises(ParameterError, match="body is not 2x3x.* taps of 16 bytes"):
            load_ensemble(path)

    def test_header_is_json_first_line(self, tmp_path):
        import json

        ens = self.make_small()
        path = tmp_path / "ensemble"
        save_ensemble(ens, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        assert header["format"] == "trfocus-ensemble"
        assert header["version"] == 2
        assert header["n_tx"] == 2
        # The body is the taps, little-endian complex128 in C order.
        assert body == ens.cirs.astype("<c16").tobytes()


# Signed zero, the smallest and largest subnormals, the largest finite
# magnitudes and values whose shortest repr needs 17 significant digits.
_ADVERSARIAL_TAPS = (
    -0.0,
    5e-324,
    -2.225073858507201e-308,
    sys.float_info.max,
    -sys.float_info.max,
    0.1 + 0.2,
    -1.0000000000000002,
)


@st.composite
def tap_arrays(draw):
    """Interleaved re/im taps of shape (n_tx, n_rx, 2L)."""
    n_tx, n_rx, length = draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=4))
    elements = st.one_of(
        st.sampled_from(_ADVERSARIAL_TAPS), st.floats(allow_nan=False, allow_infinity=False)
    )
    return draw(hnp.arrays(np.float64, (n_tx, n_rx, 2 * length), elements=elements))


def warns_if_spectrum_overflows(cirs):
    """The ensemble spectrum is computed at construction; taps near the
    largest float make that FFT overflow, which numpy reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        spec = np.fft.fft(cirs, scipy.fft.next_fast_len(2 * cirs.shape[2] - 1), axis=2)
    if np.isfinite(spec).all():
        return contextlib.nullcontext()
    return pytest.warns(RuntimeWarning, match="encountered in fft")


@settings(max_examples=60, deadline=None)
@given(taps=tap_arrays())
def test_save_load_round_trip_is_bit_exact(taps):
    cirs = taps.view(np.complex128)
    params = small_params(max_delay_s=1e-9)  # fs = 1 GHz, so any L >= 1 fits
    grid = RxGrid(0.001 * np.arange(cirs.shape[1]))
    with warns_if_spectrum_overflows(cirs):
        ens = ChannelEnsemble(cirs=cirs, params=params, grid=grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.txt"
        save_ensemble(ens, path)
        with warns_if_spectrum_overflows(cirs):
            back = load_ensemble(path)
        np.testing.assert_array_equal(back.cirs.view(np.int64), cirs.view(np.int64))
        assert back.params == params
