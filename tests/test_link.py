"""Tests for field propagation and TRDMA superposition."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import convolved_sum
from trfocus.channel import CavityParams, ChannelEnsemble, RxGrid, build_ensemble
from trfocus.errors import DimensionMismatchError, InvalidTargetError, ParameterError
from trfocus.experiment import config_from_preset, sound_cirs
from trfocus.link import check_trdma_size, focus_field, trdma_link
from trfocus.precoding import tr_filters


def ensemble_from_taps(taps, carrier_hz=10e9, bandwidth_hz=0.5e9, oversample=2):
    """Wrap a handcrafted (n_tx, n_rx, L) tap array as a ChannelEnsemble."""
    taps = np.asarray(taps, dtype=complex)
    n_rx, length = taps.shape[1:]
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
    return ChannelEnsemble(cirs=taps, params=params, grid=grid)


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
            fld.field[0, : length], bank[0], atol=1e-12
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
            ref = convolved_sum(bank, ens.cirs[:, x])
            err = np.linalg.norm(fld.field[x] - ref) / np.linalg.norm(ref)
            assert err <= 1e-12

    def test_field_is_read_only_and_never_aliases_a_caller_array(self):
        params = rich_params(n_paths=50)
        ens = build_ensemble(params, RxGrid(np.array([0.0, 0.02])), 2, 6)
        bank = tr_filters(ens.cirs_at(0), 1.0)
        fld = focus_field(bank, ens)
        assert not fld.field.flags.writeable
        for caller_array in (bank, ens.cirs, ens.spectrum, ens.grid.positions_m):
            assert not np.shares_memory(fld.field, caller_array)

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
        bank = tr_filters(ens.cirs_at(0), 1.0)
        bad_banks = (
            tr_filters(ens.cirs_at(0)[:1], 1.0),  # one antenna only
            bank[0],  # 1-D
            bank[None],  # 3-D
            bank.T,  # transposed
            [list(bank[0]), list(bank[1, :-1])],  # ragged list
        )
        for bad in bad_banks:
            with pytest.raises(DimensionMismatchError):
                focus_field(bad, ens)
            with pytest.raises(DimensionMismatchError):
                trdma_link([bad], ens, [0], symbol_period_samples=8)

    def test_non_finite_or_non_numeric_bank_raises_parameter_error(self):
        # An all-NaN bank would give an all-NaN field.
        ens = build_ensemble(rich_params(n_paths=50), RxGrid(np.array([0.0, 0.01])), 2, 6)
        good = tr_filters(ens.cirs_at(0), 1.0)
        for bad in (np.full(good.shape, np.nan), np.where(np.eye(*good.shape), np.inf, good),
                    np.ones(good.shape, dtype=bool)):
            with pytest.raises(ParameterError, match="TR bank"):
                focus_field(bad, ens)
            with pytest.raises(ParameterError, match="TR bank"):
                trdma_link([good, bad], ens, [0, 1], symbol_period_samples=8)

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
        np.testing.assert_allclose(result.own_rx[0], fld.field[1], rtol=1e-12)
        assert result.at_peak[0, 0] == result.own_rx[0, result.peak_index]

    def test_matches_time_domain_convolution(self):
        params = rich_params(n_paths=200)
        grid = RxGrid(np.array([0.0, 0.01, 0.02, 0.05]))
        ens = build_ensemble(params, grid, 3, 6)
        targets = [3, 0, 2]
        banks = [tr_filters(ens.cirs_at(t), 1.0) for t in targets]
        result = trdma_link(banks, ens, targets, symbol_period_samples=8)
        peak = result.peak_index
        for v, bank in enumerate(banks):
            for u, t in enumerate(targets):
                ref = convolved_sum(bank, ens.cirs[:, t])
                assert abs(result.at_peak[v, u] - ref[peak]) <= 1e-12 * np.linalg.norm(ref)
                if u == v:
                    err = np.linalg.norm(result.own_rx[v] - ref) / np.linalg.norm(ref)
                    assert err <= 1e-12

    def test_result_keeps_the_peak_column_and_own_rows_read_only(self):
        params = rich_params(n_paths=100)
        ens = build_ensemble(params, RxGrid(np.array([0.0, 0.01, 0.02])), 2, 6)
        banks = [tr_filters(ens.cirs_at(t), 1.0) for t in (2, 0)]
        result = trdma_link(banks, ens, [2, 0], symbol_period_samples=8)
        n_time = 2 * ens.cir_length - 1
        assert result.at_peak.shape == (2, 2) and result.own_rx.shape == (2, n_time)
        assert not result.at_peak.flags.writeable and not result.own_rx.flags.writeable
        diagonal = result.own_rx[[0, 1], [result.peak_index] * 2]
        np.testing.assert_array_equal(np.diag(result.at_peak), diagonal)

    def test_oversized_link_raises_before_propagating(self):
        # 8 192 one-tap users need 16 * 8192 * 8193 bytes, just over the
        # 1 GiB budget, and are refused before a bank is propagated; 8 191
        # fit.  The ensemble itself is 256 KiB.
        ens = ensemble_from_taps(np.ones((1, 8192, 1)))
        banks = [np.ones((1, 1), dtype=complex)] * 8192
        with pytest.raises(ParameterError, match="8192 users .* budget"):
            trdma_link(banks, ens, range(8192), symbol_period_samples=1)
        check_trdma_size(8191, 1)

    def test_bad_symbol_period_raises_before_propagating(self):
        # The period is checked before the budget, so these 8 192 users,
        # one over it, are refused for their period alone.
        ens = ensemble_from_taps(np.ones((1, 8192, 1)))
        banks = [np.ones((1, 1), dtype=complex)] * 8192
        for period in (0, -1, np.int64(0), 1.5, True, None):
            with pytest.raises(ParameterError, match="symbol_period_samples must be an integer"):
                trdma_link(banks, ens, range(8192), symbol_period_samples=period)

    def test_duplicate_targets_rejected(self):
        params = rich_params(n_paths=50)
        grid = RxGrid(np.array([0.0, 0.02]))
        ens = build_ensemble(params, grid, 1, 9)
        bank = tr_filters(ens.cirs_at(0), 1.0)
        with pytest.raises(InvalidTargetError):
            trdma_link([bank, bank], ens, [0, 0], symbol_period_samples=8)

    @pytest.mark.parametrize("targets", [[0.5, 1.2], [True, 0], [-1, 0], [0, 2], [0, 1.0]])
    def test_non_index_targets_rejected(self, targets):
        # int() would truncate the floats and read True as grid point 1.
        params = rich_params(n_paths=50)
        ens = build_ensemble(params, RxGrid(np.array([0.0, 0.02])), 1, 9)
        bank = tr_filters(ens.cirs_at(0), 1.0)
        with pytest.raises(InvalidTargetError, match="grid index must be an integer"):
            trdma_link([bank, bank], ens, targets, symbol_period_samples=8)

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
            at_peak = np.abs(res.at_peak) ** 2
            if at_peak[0, 0] > at_peak[1, 0] and at_peak[1, 1] > at_peak[0, 1]:
                wins += 1
        assert wins >= 0.95 * n_real


@st.composite
def peak_cases(draw):
    """(taps of shape (n_tx, n_rx, L), target x0, total energy E)."""
    n_tx, n_rx, length = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 64))
    parts = draw(
        hnp.arrays(
            np.float64,
            (n_tx, n_rx, length, 2),
            elements=st.floats(-1.0, 1.0, allow_subnormal=False),
        )
    )
    taps = parts[..., 0] + 1j * parts[..., 1]
    return taps, draw(st.integers(0, n_rx - 1)), draw(st.floats(0.25, 4.0))


@settings(max_examples=100, deadline=None)
@given(case=peak_cases())
def test_tr_peak_identity_property(case):
    # Criterion 5 allows 1e-9 relative; the FFT propagation keeps the
    # focusing sample within 1e-12 of sqrt(E * sum_a ||h_a||^2).
    taps, x0, e_tx = case
    energy = float(np.sum(np.abs(taps[:, x0]) ** 2))
    assume(energy > 1e-200)  # a squared tap may underflow; all-zero CIRs have no bank
    ens = ensemble_from_taps(taps)
    peak = focus_field(tr_filters(ens.cirs_at(x0), e_tx), ens).field[x0, ens.cir_length - 1]
    expected = math.sqrt(e_tx * energy)
    assert peak.real > 0
    assert abs(peak.real - expected) <= 1e-12 * expected
    assert abs(peak.imag) <= 1e-12 * expected


@st.composite
def propagation_cases(draw):
    """(taps of shape (n_tx, n_rx, L), U distinct targets, sounded or not)."""
    n_tx, n_rx, length = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 48))
    parts = draw(
        hnp.arrays(
            np.float64,
            (n_tx, n_rx, length, 2),
            elements=st.floats(-1.0, 1.0, allow_subnormal=False),
        )
    )
    targets = draw(st.lists(st.integers(0, n_rx - 1), min_size=1, max_size=n_rx, unique=True))
    return parts[..., 0] + 1j * parts[..., 1], targets, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(case=propagation_cases())
def test_propagation_matches_time_domain_convolution_property(case):
    # Each bin's BLAS product sums the antennas in its own order; the field
    # and the TRDMA samples stay within 1e-12 of the time-domain sums.
    taps, targets, sounded = case
    assume(all(np.sum(np.abs(taps[:, t]) ** 2) > 1e-200 for t in targets))
    ens = ensemble_from_taps(taps)
    if sounded:
        banks = [
            tr_filters(sound_cirs(ens, t, 1e-7, 30.0, np.random.default_rng(t)), 1.0)
            for t in targets
        ]
    else:
        banks = [tr_filters(ens.cirs_at(t), 1.0) for t in targets]
    result = trdma_link(banks, ens, targets, symbol_period_samples=4)
    for v, bank in enumerate(banks):
        ref = np.array([convolved_sum(bank, ens.cirs[:, x]) for x in range(taps.shape[1])])
        fld = focus_field(bank, ens).field
        assert np.linalg.norm(fld - ref) <= 1e-12 * np.linalg.norm(ref)
        table_ref = ref[targets]
        bound = 1e-12 * np.linalg.norm(table_ref)
        assert np.linalg.norm(result.at_peak[v] - table_ref[:, ens.cir_length - 1]) <= bound
        assert np.linalg.norm(result.own_rx[v] - table_ref[v]) <= bound


def test_single_antenna_propagation_is_the_unfused_product():
    # With one antenna each bin's product has one term, so the field is
    # ifft(W * H) with every real product and sum rounded on its own;
    # fig4's output bytes depend on these bits.  numpy's complex `*` may
    # fuse a product into the sum (FMA), so the product is written out in
    # real arithmetic.  This pins the BLAS kernel's rounding of a one-term
    # product; a BLAS whose kernel fuses it would fail here.
    ens = build_ensemble(rich_params(n_paths=100), RxGrid(np.array([0.0, 0.01, 0.02])), 1, 11)
    bank = tr_filters(ens.cirs_at(1), 1.0)
    w = np.fft.fft(bank[0], ens.spectrum.shape[2])
    h = ens.spectrum[0]
    product = (w.real * h.real - w.imag * h.imag) + 1j * (w.real * h.imag + w.imag * h.real)
    expected = np.fft.ifft(product, axis=1)[:, : 2 * ens.cir_length - 1]
    np.testing.assert_array_equal(focus_field(bank, ens).field, expected)
    banks = [bank, tr_filters(ens.cirs_at(2), 1.0)]
    result = trdma_link(banks, ens, [1, 2], symbol_period_samples=8)
    np.testing.assert_array_equal(result.at_peak[0], expected[[1, 2], ens.cir_length - 1])
    np.testing.assert_array_equal(result.own_rx[0], expected[1])


def test_sub6ghz_link_peak_memory_is_below_one_cross_table():
    # 31 sub6ghz users (8 antennas, L = 320): the (U, U, 2L-1) cross table
    # of every user pair takes 9.8 MB on its own.  The link keeps
    # 16 * 31 * (31 + 639) bytes, 0.32 MiB; with the gathered target
    # spectra and one bank's transient block it peaks near 3.7 MiB.
    cfg = config_from_preset("sub6ghz")
    shape = (cfg.n_tx, len(cfg.grid), cfg.cavity.cir_length)
    rng = np.random.default_rng(5)
    ens = ChannelEnsemble(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg.cavity, cfg.grid
    )
    targets = list(range(len(cfg.grid)))
    banks = [tr_filters(ens.cirs_at(t), 1.0) for t in targets]
    tracemalloc.start()
    try:
        result = trdma_link(banks, ens, targets, symbol_period_samples=cfg.symbol_period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.at_peak.nbytes + result.own_rx.nbytes == 16 * 31 * (31 + 639)
    assert peak < 5 << 20, peak
