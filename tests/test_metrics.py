"""Tests for the focusing figures of merit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from trfocus.channel import RxGrid, build_ensemble
from trfocus.errors import DegenerateBackgroundError, EdgePeakError, ParameterError
from trfocus.link import SpaceTimeField, TrdmaResult, trdma_link
from trfocus.metrics import (
    focusing_gain,
    isi_ratio,
    sir,
    spatial_profile,
    temporal_fwhm,
)
from trfocus.precoding import tr_filters

from test_link import rich_params


def make_field(field, positions=None, peak_index=None, fs=1.0, oversample=2):
    field = np.asarray(field, dtype=complex)
    if positions is None:
        positions = np.arange(field.shape[0], dtype=float)
    if peak_index is None:
        peak_index = field.shape[1] // 2
    return SpaceTimeField(
        field=field,
        positions_m=np.asarray(positions, dtype=float),
        peak_index=peak_index,
        sample_rate_hz=fs,
        oversample=oversample,
    )


class TestTemporalFwhm:
    def test_sinc_squared_width_is_0p886_over_b(self):
        bandwidth = 100e6
        fs = 4 * bandwidth
        n = np.arange(1024)
        y = np.sinc(bandwidth * (n / fs - 512 / fs))
        measured = temporal_fwhm(y, fs)
        assert measured == pytest.approx(0.886 / bandwidth, rel=0.02)

    @staticmethod
    def assert_within_interpolation_bound(y, fs, exact, p1, p2):
        # temporal_fwhm interpolates the power linearly between the two
        # samples that bracket each half-power crossing.  On a bracket of
        # width h that moves the crossing by at most
        # (h^2 / 8) max|p''| / min|p'|, so the width by twice that.
        h = 1.0 / fs
        bound = 0.0
        for crossing in (-exact / 2, exact / 2):
            lo = math.floor(crossing * fs) * h
            t = np.linspace(lo, lo + h, 1001)
            bound += h**2 / 8 * np.max(np.abs(p2(t))) / np.min(np.abs(p1(t)))
        measured = temporal_fwhm(y, fs)
        assert abs(measured - exact) <= bound + 1e-12 * exact
        return bound / exact

    @pytest.mark.parametrize("samples_per_width", [4, 16, 256])
    def test_gaussian_width_is_exact(self, samples_per_width):
        # |y|^2 = exp(-a t^2) with a = 4 ln 2 / W^2 halves at t = +-W/2.
        width = 2e-9
        fs = samples_per_width / width
        a = 4 * math.log(2) / width**2
        t = (np.arange(4 * samples_per_width + 1) - 2 * samples_per_width) / fs
        rel = self.assert_within_interpolation_bound(
            np.exp(-a * t**2 / 2),
            fs,
            width,
            lambda t: -2 * a * t * np.exp(-a * t**2),
            lambda t: (4 * a**2 * t**2 - 2 * a) * np.exp(-a * t**2),
        )
        assert rel <= 1.0 / samples_per_width**2

    @pytest.mark.parametrize("oversample", [4, 16, 128])
    def test_sinc_squared_width_is_exact(self, oversample):
        # sinc(x)^2 = 1/2 at x = +-0.4429..., so the width is 0.8859/B.
        # s = sinc solves x s'' + 2 s' + pi^2 x s = 0, which gives s''.
        bandwidth = 100e6
        fs = oversample * bandwidth
        exact = 2 * brentq(lambda x: np.sinc(x) ** 2 - 0.5, 0.1, 0.9) / bandwidth

        def s01(t):
            x = bandwidth * t
            s = np.sinc(x)
            d1 = (np.cos(np.pi * x) - s) / x
            return s, d1, -2 * d1 / x - np.pi**2 * s

        def p1(t):
            s, d1, _ = s01(t)
            return 2 * s * d1 * bandwidth

        def p2(t):
            s, d1, d2 = s01(t)
            return 2 * (d1**2 + s * d2) * bandwidth**2

        n = np.arange(-8 * oversample, 8 * oversample + 1)
        rel = self.assert_within_interpolation_bound(
            np.sinc(bandwidth * n / fs), fs, exact, p1, p2
        )
        assert rel <= 1.0 / oversample**2

    def test_plateau_tie_break(self):
        y = np.sqrt(np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
        assert temporal_fwhm(y, 1.0) == pytest.approx(3.0)

    def test_edge_peak_raises(self):
        y = np.arange(1.0, 9.0)  # max at the last sample
        with pytest.raises(EdgePeakError):
            temporal_fwhm(y, 1.0)

    @pytest.mark.parametrize("sample_rate_hz", [0.0, -1.0, math.nan, math.inf])
    def test_bad_sample_rate_raises_parameter_error(self, sample_rate_hz):
        y = np.sqrt(np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
        with pytest.raises(ParameterError, match="sample_rate_hz"):
            temporal_fwhm(y, sample_rate_hz)

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        y = np.sinc(0.2 * (np.arange(256) - 128.0)) + 0.01 * rng.standard_normal(256)
        assert temporal_fwhm(3j * y, 1.0) == pytest.approx(temporal_fwhm(y, 1.0))


class TestSpatialProfile:
    def test_jinc_free_width(self):
        # |sin(u)/u|^2 profile: full width at half power is 0.443 lambda.
        lam = 0.12
        positions = np.linspace(-lam, lam, 201)
        k = 2 * math.pi / lam
        u = k * positions
        amps = np.ones_like(u)
        nz = u != 0
        amps[nz] = np.sin(u[nz]) / u[nz]
        field = np.zeros((positions.size, 5), dtype=complex)
        field[:, 2] = amps
        profile = spatial_profile(make_field(field, positions, peak_index=2), 2)
        assert profile.fwhm_m == pytest.approx(0.443 * lam, rel=0.03)

    def test_single_position_grid_is_edge_peak(self):
        field = np.ones((1, 9), dtype=complex)
        with pytest.raises(EdgePeakError):
            spatial_profile(make_field(field, [0.0]), 4)

    def test_normalized_to_peak(self):
        field = np.zeros((7, 3), dtype=complex)
        field[:, 1] = np.array([0.1, 0.5, 1.0, 2.0, 1.0, 0.5, 0.1])
        profile = spatial_profile(make_field(field), 1)
        assert profile.power_db.max() == pytest.approx(0.0)

    def test_global_scaling_leaves_profile_unchanged(self):
        rng = np.random.default_rng(1)
        base = np.zeros((11, 3), dtype=complex)
        base[:, 1] = np.exp(-0.5 * (np.arange(11) - 5.0) ** 2) + 0.01 * rng.random(11)
        a = spatial_profile(make_field(base), 1)
        b = spatial_profile(make_field(base * (2.0 - 1.0j)), 1)
        assert b.fwhm_m == pytest.approx(a.fwhm_m, rel=1e-12)
        np.testing.assert_allclose(b.power_db, a.power_db, atol=1e-9)

    @pytest.mark.parametrize("index", [10.5, 10.0, True, -1, 40])
    def test_non_integer_or_off_record_index_raises_parameter_error(self, index):
        fld = make_field(np.ones((4, 40), dtype=complex))
        with pytest.raises(ParameterError, match="peak_time_index"):
            spatial_profile(fld, index)


class TestFocusingGain:
    def test_flat_field_is_zero_db(self):
        field = np.ones((4, 40), dtype=complex)
        assert focusing_gain(make_field(field), 0) == pytest.approx(0.0, abs=1e-12)

    def test_known_ratio(self):
        field = np.ones((3, 64), dtype=complex)
        field[1, 30] = 10.0  # peak power 100 over background 1
        gain = focusing_gain(make_field(field), 1)
        assert gain == pytest.approx(20.0, abs=1e-9)

    def test_guard_excludes_mainlobe_columns(self):
        field = np.ones((2, 64), dtype=complex)
        field[0, 30] = 10.0
        field[1, 28:33] = 50.0  # inside the guard of the other row
        gain = focusing_gain(make_field(field, oversample=2), 0)
        assert gain == pytest.approx(20.0, abs=1e-9)

    def test_single_position_degenerate(self):
        field = np.ones((1, 16), dtype=complex)
        with pytest.raises(DegenerateBackgroundError):
            focusing_gain(make_field(field), 0)

    def test_zero_background_degenerate(self):
        field = np.zeros((2, 32), dtype=complex)
        field[0, 16] = 1.0
        with pytest.raises(DegenerateBackgroundError):
            focusing_gain(make_field(field), 0)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, np.float64(2.0), -1, 4])
    def test_non_integer_or_off_grid_index_raises_parameter_error(self, index):
        fld = make_field(np.ones((4, 40), dtype=complex))
        with pytest.raises(ParameterError, match="target_index"):
            focusing_gain(fld, index)

    def test_nt_scaling_adds_9db_and_is_monotone(self):
        # Peak grows like Nt at fixed E_tx while the speckle background
        # does not: gain(Nt=8) - gain(Nt=1) ~ 10 log10(8), and the
        # ensemble-mean gain increases across Nt in {1, 2, 8}.
        params = rich_params(n_paths=300)
        lam = params.wavelength_m
        grid = RxGrid(np.array([0.0, 3 * lam, 6 * lam, 9 * lam, 12 * lam]))
        gains = {}
        for n_tx in (1, 2, 8):
            rng = np.random.default_rng(40)
            vals = []
            for _ in range(60):
                ens = build_ensemble(params, grid, n_tx, rng)
                from trfocus.link import focus_field

                bank = tr_filters(ens.cirs_at(2), 1.0)
                vals.append(focusing_gain(focus_field(bank, ens), 2))
            gains[n_tx] = np.mean(vals)
        assert gains[1] < gains[2] < gains[8]
        assert gains[8] - gains[1] == pytest.approx(10 * math.log10(8), abs=1.5)


def trdma_from_table(rx, period, peak):
    """The TrdmaResult of a full (U, U, n_time) cross table rx, where
    rx[v, u] is user u's record of user v's stream: its column at the
    peak and its diagonal rows."""
    i = np.arange(rx.shape[0])
    return TrdmaResult(rx[:, :, peak], rx[i, i], period, peak)


class TestSirAndIsi:
    def orthogonal_trdma(self):
        # Two single-tap channels with disjoint support: no interference.
        length = 16
        rx = np.zeros((2, 2, 2 * length - 1), dtype=complex)
        rx[0, 0, length - 1] = 1.0
        rx[1, 1, length - 1] = 1.0
        rx[0, 1, 3] = 0.5  # off the focusing instant
        return trdma_from_table(rx, 8, length - 1)

    def test_orthogonal_channels_have_infinite_sir(self):
        vals = sir(self.orthogonal_trdma())
        assert np.all(np.isinf(vals))

    def test_identical_cirs_give_zero_db(self):
        params = rich_params(n_paths=100)
        ens = build_ensemble(params, RxGrid(np.array([0.0, 0.02])), 1, 30)
        cirs = ens.cirs.copy()
        cirs[:, 1, :] = cirs[:, 0, :]  # both users see the same channel
        from trfocus.channel import ChannelEnsemble

        twin = ChannelEnsemble(cirs=cirs, params=ens.params, grid=ens.grid)
        banks = [tr_filters(twin.cirs_at(0), 1.0), tr_filters(twin.cirs_at(1), 1.0)]
        res = trdma_link(banks, twin, [0, 1], symbol_period_samples=8)
        vals = sir(res)
        np.testing.assert_allclose(vals, [0.0, 0.0], atol=1e-9)

    def test_zero_signal_gives_minus_inf_sir(self):
        # Each user's own stream is 0 at the peak, the other user's is not.
        rx = np.zeros((2, 2, 7), dtype=complex)
        rx[1, 0, 3] = rx[0, 1, 3] = 1.0
        vals = sir(trdma_from_table(rx, 2, 3))
        assert np.all(vals == -np.inf)
        rx[0, 0, 3] = 1e-200  # the ratio 1e-400 underflows to 0
        rx[1, 0, 3] = 1e10
        assert sir(trdma_from_table(rx, 2, 3))[0] == -np.inf

    def test_zero_peak_gives_minus_inf_isi_ratio(self):
        rx = np.zeros((2, 2, 7), dtype=complex)
        rx[0, 0, 1] = 1.0  # leak one symbol period before an empty peak
        rx[1, 1, 3] = 1.0
        vals = isi_ratio(trdma_from_table(rx, 2, 3))
        assert vals[0] == -np.inf and vals[1] == np.inf

    def test_needs_two_users(self):
        length = 8
        rx = np.ones((1, 1, 2 * length - 1), dtype=complex)
        res = trdma_from_table(rx, 4, length - 1)
        with pytest.raises(ParameterError):
            sir(res)

    @pytest.mark.parametrize(
        "period, peak, match",
        [(0, 3, "symbol_period"), (-2, 3, "symbol_period"), (2.0, 3, "symbol_period"),
         (True, 3, "symbol_period"), (2, -1, "peak_index"), (2, 7, "peak_index"),
         (2, 3.0, "peak_index")],
    )
    def test_bad_period_or_peak_index_raises_parameter_error(self, period, peak, match):
        # A period below 1 would keep isi_ratio's offset loop from ending,
        # and a negative peak index would read the record from its end.
        with pytest.raises(ParameterError, match=match):
            isi_ratio(TrdmaResult(np.ones((2, 2)), np.ones((2, 7)), period, peak))

    def test_trdma_link_arrays_are_read_only(self):
        params = rich_params(n_paths=50)
        ens = build_ensemble(params, RxGrid(np.array([0.0, 0.02])), 2, 6)
        banks = [tr_filters(ens.cirs_at(u), 1.0) for u in (0, 1)]
        res = trdma_link(banks, ens, [0, 1], symbol_period_samples=8)
        assert not res.at_peak.flags.writeable and not res.own_rx.flags.writeable
        # isi_ratio reads the period of a result built by hand too.
        with pytest.raises(ParameterError, match="symbol_period"):
            isi_ratio(res._replace(symbol_period_samples=0))

    def test_isi_ratio_counts_symbol_instants(self):
        length = 16
        rx = np.zeros((2, 2, 2 * length - 1), dtype=complex)
        rx[0, 0, length - 1] = 2.0
        rx[0, 0, length - 1 + 8] = 1.0  # one symbol period later
        rx[0, 0, length - 1 - 8] = 1.0  # one earlier
        rx[1, 1, length - 1] = 1.0
        res = trdma_from_table(rx, 8, length - 1)
        vals = isi_ratio(res)
        assert vals[0] == pytest.approx(10 * math.log10(4.0 / 2.0))
        assert np.isinf(vals[1])

    def test_mean_sir_exceeds_10db_at_2lambda(self):
        params = rich_params(n_paths=300)
        lam = params.wavelength_m
        grid = RxGrid(np.array([0.0, 2.5 * lam]))
        rng = np.random.default_rng(31)
        vals = []
        for _ in range(100):
            ens = build_ensemble(params, grid, 8, rng)
            banks = [tr_filters(ens.cirs_at(0), 1.0), tr_filters(ens.cirs_at(1), 1.0)]
            res = trdma_link(banks, ens, [0, 1], symbol_period_samples=16)
            vals.extend(sir(res))
        assert np.mean(vals) >= 10.0
