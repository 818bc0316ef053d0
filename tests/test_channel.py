"""Oracle and invariant tests for the diffuse multipath channel model."""

import contextlib
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

from trfocus.channel import (
    SPEED_OF_LIGHT_M_S as C,
    CavityParams,
    ChannelEnsemble,
    PathSet,
    RxGrid,
    build_ensemble,
    draw_paths,
    load_ensemble,
    save_ensemble,
    spatial_correlation_theory,
    synthesize_cir,
)
from trfocus.errors import DimensionMismatchError, ParameterError


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


def naive_taps(paths, position_m, params, axis, length):
    """Direct double-loop evaluation of the plane-wave synthesis formula."""
    fs = params.sample_rate_hz
    h = np.zeros(length, dtype=complex)
    for p in range(len(paths)):
        tau = paths.delays_s[p] + position_m * float(paths.directions[p] @ axis) / C
        rot = paths.amplitudes[p] * np.exp(-2j * np.pi * params.carrier_hz * tau)
        for n in range(length):
            h[n] += rot * np.sinc(params.bandwidth_hz * (n / fs - tau))
    return h


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

    def test_grid(self):
        with pytest.raises(ParameterError):
            RxGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ParameterError):
            RxGrid(np.array([0.0, 1.0]), axis=np.array([1.0, 1.0, 0.0]))
        grid = RxGrid(np.array([0.0, 0.01]))
        assert abs(grid.boresight() @ grid.axis) < 1e-12

    def test_pathset_shapes(self):
        with pytest.raises(DimensionMismatchError):
            PathSet(np.array([0.0]), np.eye(3), np.array([1.0 + 0j]))


class TestDrawPaths:
    def test_seeded_reproducibility(self):
        params = small_params(n_paths=1000)
        a = draw_paths(params, np.random.default_rng(7))
        b = draw_paths(params, np.random.default_rng(7))
        np.testing.assert_array_equal(a.delays_s, b.delays_s)
        np.testing.assert_array_equal(a.directions, b.directions)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_full_sphere_mean_direction_vanishes(self):
        params = small_params(n_paths=10000)
        paths = draw_paths(params, np.random.default_rng(1))
        assert np.linalg.norm(paths.directions.mean(axis=0)) < 0.1

    def test_cap_respects_half_angle(self):
        half = math.radians(30.0)
        params = small_params(aperture_half_angle_rad=half, n_paths=5000)
        boresight = np.array([0.0, 0.0, 1.0])
        paths = draw_paths(params, np.random.default_rng(2), boresight)
        cos_min = (paths.directions @ boresight).min()
        assert cos_min >= math.cos(half) - 1e-12

    def test_mean_energy_is_normalized(self):
        # Empirical E||h||^2 over 500 draws stays within [0.9, 1.1].
        params = small_params(n_paths=300, max_delay_s=32 / 0.5e9)
        rng = np.random.default_rng(3)
        energies = []
        for _ in range(500):
            paths = draw_paths(params, rng)
            cir = synthesize_cir(paths, 0.0, params)
            energies.append(cir.energy)
        assert 0.9 <= np.mean(energies) <= 1.1


class TestSynthesizeCir:
    def test_matches_naive_double_loop(self):
        params = small_params(n_paths=40, oversample=3)
        paths = draw_paths(params, np.random.default_rng(4))
        axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        x = 0.0123
        length = 50
        fast = synthesize_cir(paths, x, params, axis=axis, length=length).taps
        slow = naive_taps(paths, x, params, axis, length)
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
        axis = np.array([1.0, 0.0, 0.0])
        along = np.arange(centers.size) % 2 == 0
        directions = np.where(along[:, None], axis, np.array([0.0, 0.0, 1.0]))
        amps = np.exp(1j * np.arange(centers.size)) * (1.0 + 0.1 * np.arange(centers.size))
        paths = PathSet(delays, directions, amps)
        # Shifts of whole and fractional taps, pushing k below 0 and past Q.
        for shift_taps in (0.0, -3.0, 4.0, -0.25, 2.0 + 1e-10):
            x = shift_taps * C / fs
            fast = synthesize_cir(paths, x, params, axis=axis, length=length).taps
            slow = naive_taps(paths, x, params, axis, length)
            assert np.linalg.norm(fast - slow) < 1e-12 * np.linalg.norm(slow), shift_taps

    def test_on_grid_path_gives_kronecker_delta(self):
        # One path exactly on the tap grid at oversample 1: single tap,
        # neighbors land on exact sinc zeros.
        params = small_params(n_paths=1, oversample=1)
        fs = params.sample_rate_hz
        tau = 12.0 / fs
        amp = 0.7 - 0.2j
        paths = PathSet(
            np.array([tau]),
            np.array([[0.0, 0.0, 1.0]]),
            np.array([amp]),
        )
        cir = synthesize_cir(paths, 0.0, params, length=64)
        expected = amp * np.exp(-2j * np.pi * params.carrier_hz * tau)
        assert abs(cir.taps[12] - expected) < 1e-9
        others = np.delete(cir.taps, 12)
        assert np.abs(others).max() < 1e-9

    def test_purity(self):
        params = small_params(n_paths=64)
        paths = draw_paths(params, np.random.default_rng(5))
        a = synthesize_cir(paths, 0.0, params).taps
        b = synthesize_cir(paths, 0.0, params).taps
        np.testing.assert_array_equal(a, b)

    def test_decorrelation_at_ten_wavelengths(self):
        params = small_params(n_paths=2000)
        paths = draw_paths(params, np.random.default_rng(6))
        lam = params.wavelength_m
        h0 = synthesize_cir(paths, 0.0, params).taps
        h1 = synthesize_cir(paths, 10 * lam, params).taps
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

    def test_seed_determinism_bit_exact(self):
        params = small_params(n_paths=64)
        grid = RxGrid(np.array([0.0, 0.005, 0.01]))
        a = build_ensemble(params, grid, 2, 42)
        b = build_ensemble(params, grid, 2, 42)
        np.testing.assert_array_equal(a.cirs, b.cirs)
        assert a.seed == 42

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

    def test_cone_matches_jinc(self):
        from scipy.special import j1

        fc, theta = 36e9, math.radians(40.0)
        dx = 0.004
        v = (2 * math.pi * fc / C) * dx * math.sin(theta)
        expected = 2 * j1(v) / v
        assert spatial_correlation_theory(dx, fc, theta) == pytest.approx(expected)

    def test_wide_cap_quadrature_approaches_sphere(self):
        fc = 10e9
        lam = C / fc
        for dx in (0.1 * lam, 0.7 * lam, 1.9 * lam):
            full = spatial_correlation_theory(dx, fc, math.pi)
            wide = spatial_correlation_theory(dx, fc, math.pi - 1e-6)
            assert wide == pytest.approx(full, abs=1e-5)


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

    def test_text_round_trip_bit_exact(self, tmp_path):
        ens = self.make_small()
        path = tmp_path / "ensemble.txt"
        save_ensemble(ens, path, mode="text")
        back = load_ensemble(path)
        np.testing.assert_array_equal(back.cirs, ens.cirs)
        np.testing.assert_array_equal(back.grid.positions_m, ens.grid.positions_m)
        assert back.params == ens.params
        assert back.seed == 9

    def test_binary_round_trip(self, tmp_path):
        ens = self.make_small()
        path = tmp_path / "ensemble.bin"
        save_ensemble(ens, path, mode="binary")
        back = load_ensemble(path)
        np.testing.assert_array_equal(back.cirs, ens.cirs)

    def test_header_missing_keys_raises_parameter_error(self, tmp_path):
        path = tmp_path / "ensemble.txt"
        path.write_text('{"format": "trfocus-ensemble"}\n')
        with pytest.raises(ParameterError, match="malformed header"):
            load_ensemble(path)

    def test_unknown_mode_raises_parameter_error(self, tmp_path):
        import json

        path = tmp_path / "ensemble.bin"
        save_ensemble(self.make_small(), path, mode="binary")
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["mode"] = "hdf5"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ParameterError, match="unknown mode"):
            load_ensemble(path)

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_wrong_body_size_raises_parameter_error(self, tmp_path, mode):
        path = tmp_path / "ensemble"
        save_ensemble(self.make_small(), path, mode=mode)
        data = path.read_bytes()
        cut = data.rindex(b"\n", 0, len(data) - 1) if mode == "text" else len(data) - 16
        path.write_bytes(data[:cut])
        with pytest.raises(ParameterError, match="body does not hold"):
            load_ensemble(path)

    def test_cir_split_over_two_lines_raises_parameter_error(self, tmp_path):
        path = tmp_path / "ensemble.txt"
        save_ensemble(self.make_small(), path, mode="text")
        header, first, rest = path.read_text().split("\n", 2)
        tokens = first.split()
        half = len(tokens) // 2
        path.write_text(
            "\n".join([header, " ".join(tokens[:half]), " ".join(tokens[half:]), rest])
        )
        with pytest.raises(ParameterError, match="body does not hold"):
            load_ensemble(path)

    def test_header_is_json_first_line(self, tmp_path):
        import json

        ens = self.make_small()
        path = tmp_path / "ensemble.txt"
        save_ensemble(ens, path, mode="text")
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "trfocus-ensemble"
        assert header["n_tx"] == 2


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
        ens = ChannelEnsemble(cirs=cirs, params=params, grid=grid, n_tx=cirs.shape[0])
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("text", "binary"):
            path = Path(tmp) / mode
            save_ensemble(ens, path, mode=mode)
            with warns_if_spectrum_overflows(cirs):
                back = load_ensemble(path)
            np.testing.assert_array_equal(back.cirs.view(np.int64), cirs.view(np.int64))
            assert back.params == params
