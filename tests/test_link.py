"""Tests for field propagation and TRDMA superposition."""

import math

import numpy as np
import pytest

from trfocus.channel import CavityParams, ChannelEnsemble, RxGrid, build_ensemble
from trfocus.errors import DimensionMismatchError, InvalidTargetError
from trfocus.link import focus_field, trdma_link
from trfocus.precoding import tr_filters


def ensemble_from_taps(taps, carrier_hz=10e9, bandwidth_hz=0.5e9, oversample=2):
    """Wrap a handcrafted (n_tx, n_rx, L) tap array as a ChannelEnsemble."""
    taps = np.asarray(taps, dtype=complex)
    n_tx, n_rx, length = taps.shape
    fs = oversample * bandwidth_hz
    params = CavityParams(
        carrier_hz=carrier_hz,
        bandwidth_hz=bandwidth_hz,
        decay_time_s=length / fs,
        max_delay_s=length / fs / 2,
        n_paths=1,
        oversample=oversample,
    )
    grid = RxGrid(np.arange(n_rx) * 0.01)
    return ChannelEnsemble(cirs=taps, params=params, grid=grid, n_tx=n_tx)


def convolved_sum(filters, cirs):
    """Oracle: sum_a np.convolve(filters[a], cirs[a]) in the time domain."""
    return sum(np.convolve(w, h) for w, h in zip(filters, cirs))


def rich_params(n_paths=300, oversample=2, bandwidth_hz=0.5e9, carrier_hz=10e9):
    return CavityParams(
        carrier_hz=carrier_hz,
        bandwidth_hz=bandwidth_hz,
        decay_time_s=64 / bandwidth_hz,
        max_delay_s=72 / bandwidth_hz,
        n_paths=n_paths,
        oversample=oversample,
    )


class TestFocusField:
    def test_flat_channel_returns_shifted_filter(self):
        length = 12
        taps = np.zeros((1, 1, length), dtype=complex)
        taps[0, 0, 0] = 1.0
        ens = ensemble_from_taps(taps)
        bank = tr_filters(ens.cirs_at(0), total_energy=1.0)
        fld = focus_field(bank, ens)
        assert fld.field.shape == (1, 2 * length - 1)
        peak = fld.field[0, length - 1]
        assert peak == pytest.approx(1.0)  # sqrt(E_tx) for a unit channel
        np.testing.assert_allclose(
            fld.field[0, : length], bank.filters[0], atol=1e-12
        )

    def test_peak_identity_perfect_csi(self):
        params = rich_params()
        grid = RxGrid(np.array([0.0, 0.02, 0.04]))
        ens = build_ensemble(params, grid, 4, 3)
        for e_tx in (1.0, 2.5):
            bank = tr_filters(ens.cirs_at(1), total_energy=e_tx)
            fld = focus_field(bank, ens)
            peak = fld.field[1, fld.peak_index]
            expected = math.sqrt(e_tx * sum(np.sum(np.abs(ens.cirs[:, 1]) ** 2, axis=1)))
            assert abs(peak.real - expected) < 1e-9 * expected
            assert abs(peak.imag) < 1e-9 * abs(peak)

    def test_matches_time_domain_convolution(self):
        params = rich_params(n_paths=200)
        grid = RxGrid(np.array([0.0, 0.01, 0.02, 0.05]))
        ens = build_ensemble(params, grid, 3, 5)
        bank = tr_filters(ens.cirs_at(2), 1.0)
        fld = focus_field(bank, ens)
        for x in range(len(grid)):
            ref = convolved_sum(bank.filters, ens.cirs[:, x])
            err = np.linalg.norm(fld.field[x] - ref) / np.linalg.norm(ref)
            assert err <= 1e-12

    def test_energy_scaling_preserves_argmax(self):
        params = rich_params(n_paths=100)
        grid = RxGrid(np.array([0.0, 0.02]))
        ens = build_ensemble(params, grid, 2, 4)
        base = focus_field(tr_filters(ens.cirs_at(0), 1.0), ens)
        scaled = focus_field(tr_filters(ens.cirs_at(0), 9.0), ens)
        np.testing.assert_allclose(scaled.field, 3.0 * base.field, rtol=1e-12)
        assert np.argmax(np.abs(scaled.field)) == np.argmax(np.abs(base.field))

    def test_dimension_mismatch(self):
        params = rich_params(n_paths=50)
        ens = build_ensemble(params, RxGrid(np.array([0.0])), 2, 6)
        bank = tr_filters(ens.cirs_at(0)[:1], 1.0)  # one antenna only
        with pytest.raises(DimensionMismatchError):
            focus_field(bank, ens)

    def test_background_at_least_10db_below_peak(self):
        # Nt = 8 and ~72 resolvable taps: off-peak background of the
        # target row sits well below the coherent peak.
        params = rich_params(n_paths=400)
        ens = build_ensemble(params, RxGrid(np.array([0.0])), 8, 7)
        bank = tr_filters(ens.cirs_at(0), 1.0)
        fld = focus_field(bank, ens)
        power = np.abs(fld.field[0]) ** 2
        guard = 2 * params.oversample
        mask = np.abs(np.arange(power.size) - fld.peak_index) > guard
        margin_db = 10 * np.log10(power[fld.peak_index] / power[mask].mean())
        assert margin_db >= 10.0


class TestTrdmaLink:
    def test_single_user_reduces_to_focus_row(self):
        params = rich_params(n_paths=100)
        grid = RxGrid(np.array([0.0, 0.02]))
        ens = build_ensemble(params, grid, 2, 8)
        bank = tr_filters(ens.cirs_at(1), 1.0)
        result = trdma_link([bank], ens, [1], symbol_period_samples=8)
        fld = focus_field(bank, ens)
        np.testing.assert_allclose(result.per_user_rx[0, 0], fld.field[1], rtol=1e-12)

    def test_matches_time_domain_convolution(self):
        params = rich_params(n_paths=200)
        grid = RxGrid(np.array([0.0, 0.01, 0.02, 0.05]))
        ens = build_ensemble(params, grid, 3, 6)
        targets = [3, 0, 2]
        banks = [tr_filters(ens.cirs_at(t), 1.0) for t in targets]
        result = trdma_link(banks, ens, targets, symbol_period_samples=8)
        for v, bank in enumerate(banks):
            for u, t in enumerate(targets):
                ref = convolved_sum(bank.filters, ens.cirs[:, t])
                err = np.linalg.norm(result.per_user_rx[v, u] - ref) / np.linalg.norm(ref)
                assert err <= 1e-12

    def test_duplicate_targets_rejected(self):
        params = rich_params(n_paths=50)
        grid = RxGrid(np.array([0.0, 0.02]))
        ens = build_ensemble(params, grid, 1, 9)
        bank = tr_filters(ens.cirs_at(0), 1.0)
        with pytest.raises(InvalidTargetError):
            trdma_link([bank, bank], ens, [0, 0], symbol_period_samples=8)

    def test_intended_peak_beats_interference(self):
        # Two users >= 2 lambda apart: the own-stream focusing-instant
        # power exceeds the cross-stream power in >= 95% of realizations.
        params = rich_params(n_paths=300)
        lam = params.wavelength_m
        grid = RxGrid(np.array([0.0, 2.5 * lam]))
        rng = np.random.default_rng(13)
        wins = 0
        n_real = 200
        for _ in range(n_real):
            ens = build_ensemble(params, grid, 2, rng)
            banks = [tr_filters(ens.cirs_at(0), 1.0), tr_filters(ens.cirs_at(1), 1.0)]
            res = trdma_link(banks, ens, [0, 1], symbol_period_samples=16)
            at_peak = np.abs(res.per_user_rx[:, :, res.peak_index]) ** 2
            if at_peak[0, 0] > at_peak[1, 0] and at_peak[1, 1] > at_peak[0, 1]:
                wins += 1
        assert wins >= 0.95 * n_real

