"""Tests for TR filter construction and the MRT equivalence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trfocus.errors import (
    DegenerateChannelError,
    DimensionMismatchError,
    ParameterError,
    TrfocusError,
)
from trfocus.precoding import equivalence_residual, mrt_weights, tr_filters


def random_cirs(rng, n_tx, length):
    return np.array([
        (rng.standard_normal(length) + 1j * rng.standard_normal(length)) / np.sqrt(2 * length)
        for _ in range(n_tx)
    ])


class TestTrFilters:
    def test_bank_is_read_only_complex_array(self):
        rng = np.random.default_rng(11)
        taps = random_cirs(rng, 3, 10)
        for cirs in (taps, taps.real, list(taps)):
            bank = tr_filters(cirs)
            assert type(bank) is np.ndarray
            assert bank.dtype == np.complex128 and bank.shape == (3, 10)
            assert not bank.flags.writeable
            with pytest.raises(ValueError):
                bank[0, 0] = 0.0

    def test_flat_channel_moves_delta_to_last_tap(self):
        length = 16
        taps = np.zeros(length, dtype=complex)
        taps[0] = 1.0
        bank = tr_filters([taps], total_energy=1.0)
        expected = np.zeros(length, dtype=complex)
        expected[length - 1] = 1.0
        np.testing.assert_allclose(bank[0], expected, atol=1e-15)

    def test_symmetric_split_across_two_antennas(self):
        rng = np.random.default_rng(0)
        cirs = []
        for _ in range(2):
            taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            taps /= np.linalg.norm(taps)  # unit energy each
            cirs.append(taps)
        bank = tr_filters(cirs, total_energy=1.0)
        energies = np.sum(np.abs(bank) ** 2, axis=1)
        np.testing.assert_allclose(energies, [0.5, 0.5], rtol=1e-12)

    def test_total_energy_exact(self):
        rng = np.random.default_rng(1)
        for e_tx in (1.0, 0.25, 7.5):
            bank = tr_filters(random_cirs(rng, 4, 16), total_energy=e_tx)
            total = np.sum(np.abs(bank) ** 2)
            assert abs(total - e_tx) < 1e-12 * e_tx

    def test_energy_scaling_scales_filters_by_sqrt(self):
        rng = np.random.default_rng(2)
        cirs = random_cirs(rng, 3, 12)
        base = tr_filters(cirs, total_energy=1.0)
        scaled = tr_filters(cirs, total_energy=4.0)
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12)

    def test_degenerate_channel(self):
        zeros = np.zeros((1, 8))
        with pytest.raises(DegenerateChannelError):
            tr_filters(zeros)
        # Non-finite or non-numeric taps are rejected before any arithmetic.
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
            taps = np.ones((2, 8), dtype=complex)
            taps[1, 3] = bad
            for fn in (tr_filters, lambda c: mrt_weights(c, 16)):
                with pytest.raises(ParameterError, match="finite"):
                    fn(taps)
        for junk in ("taps", [["1", "2"]], [[None, 1.0]], [[True, False]]):
            with pytest.raises(TrfocusError):
                tr_filters(junk)

    def test_energy_must_be_positive_and_finite(self):
        # NaN or inf would scale the bank to NaN or zero.
        taps = np.ones((2, 4), dtype=complex)
        for energy in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            for fn in (tr_filters, lambda c, e: mrt_weights(c, 8, e)):
                with pytest.raises(ParameterError, match="total_energy"):
                    fn(taps, energy)

    def test_mismatched_lengths(self):
        rng = np.random.default_rng(3)
        cirs = [*random_cirs(rng, 1, 8), *random_cirs(rng, 1, 9)]
        with pytest.raises(DimensionMismatchError):
            tr_filters(cirs)
        # Every input that is not one non-empty (n_tx, L) array: a ragged
        # nesting, one CIR, a batch of banks, no antennas or no taps.
        bad_shapes = (
            [[1.0, 2.0], [1.0]],
            np.ones(8),
            np.ones((2, 3, 8)),
            np.ones((0, 8)),
            np.ones((2, 0)),
            [],
            1.0,
        )
        for cirs in bad_shapes:
            for fn in (tr_filters, lambda c: mrt_weights(c, 16)):
                with pytest.raises(DimensionMismatchError):
                    fn(cirs)
            with pytest.raises(DimensionMismatchError):
                equivalence_residual(tr_filters(np.ones((2, 8))), cirs)


class TestMrtWeights:
    def test_flat_channel_gives_constant_magnitude(self):
        taps = np.zeros(8, dtype=complex)
        taps[0] = 1.0
        w = mrt_weights([taps], n_bins=16)[0]
        np.testing.assert_allclose(np.abs(w), np.abs(w[0]), rtol=1e-12)

    def test_conjugation_makes_product_real_nonnegative(self):
        rng = np.random.default_rng(4)
        cirs = random_cirs(rng, 2, 10)
        n_bins = 32
        w = mrt_weights(cirs, n_bins)
        assert not w.flags.writeable
        for a, cir in enumerate(cirs):
            spectrum = np.fft.fft(cir, n_bins)
            product = w[a] * spectrum
            assert np.max(np.abs(product.imag)) < 1e-12 * np.max(product.real)
            assert product.real.min() >= -1e-15

    def test_magnitude_matches_channel_up_to_global_constant(self):
        rng = np.random.default_rng(5)
        cirs = random_cirs(rng, 3, 10)
        n_bins = 32
        w = mrt_weights(cirs, n_bins)
        spectra = np.fft.fft(cirs, n_bins, axis=1)
        ratio = np.abs(w) / np.abs(spectra)
        assert np.max(np.abs(ratio - ratio[0, 0])) < 1e-12

    def test_bins_must_cover_taps(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ParameterError):
            mrt_weights(random_cirs(rng, 1, 16), n_bins=8)

    def test_bins_follow_the_integer_rule(self):
        taps = np.ones((2, 4), dtype=complex)
        for n_bins in (4.5, True, np.int64(3), "8", None):
            with pytest.raises(ParameterError, match="n_bins must be an integer"):
                mrt_weights(taps, n_bins)
        assert mrt_weights(taps, np.int64(4)).shape == (2, 4)

    def test_bins_over_budget_are_refused_before_the_fft(self):
        taps = np.ones((2, 4), dtype=complex)
        for n_bins in (2**40, 10**400):
            with pytest.raises(ParameterError, match="MRT weights for 2 x .* over the 1024 MiB"):
                mrt_weights(taps, n_bins)

    def test_peak_memory_is_the_budgeted_weights(self):
        # The budget counts 16 * n_tx * n_bins bytes, one complex array:
        # 2 MiB here.
        taps = random_cirs(np.random.default_rng(8), 2, 16)
        tracemalloc.start()
        try:
            weights = mrt_weights(taps, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights.nbytes == 2 << 20
        assert peak < 1.25 * weights.nbytes, peak


class TestEquivalenceResidual:
    def test_exact_identity_many_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_tx = int(rng.integers(1, 5))
            length = int(rng.integers(2, 48))
            cirs = random_cirs(rng, n_tx, length)
            bank = tr_filters(cirs, total_energy=float(rng.uniform(0.5, 2.0)))
            assert equivalence_residual(bank, cirs) < 1e-10

    def test_single_tap_is_exact(self):
        cirs = [[0.3 + 0.4j]]
        bank = tr_filters(cirs)
        assert equivalence_residual(bank, cirs) < 1e-14

    def test_perturbation_is_detected(self):
        rng = np.random.default_rng(8)
        cirs = random_cirs(rng, 2, 16)
        bank = tr_filters(cirs)
        broken = bank.copy()
        broken[0, 5] *= 1.10
        assert equivalence_residual(broken, cirs) > 1e-3

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        cirs = random_cirs(rng, 2, 16)
        bank = tr_filters(cirs)
        with pytest.raises(DimensionMismatchError):
            equivalence_residual(bank, cirs[:1])

    def test_zero_bank_is_refused_by_name(self):
        cirs = random_cirs(np.random.default_rng(10), 2, 16)
        with pytest.raises(ParameterError, match="bank"):
            equivalence_residual(np.zeros_like(cirs), cirs)


class TestPeakOptimality:
    def test_no_equal_energy_bank_beats_tr(self):
        # Cauchy-Schwarz: the TR bank maximizes the focusing-instant
        # amplitude among all banks with the same total energy.
        rng = np.random.default_rng(10)
        n_tx, length, e_tx = 4, 24, 1.0
        taps = random_cirs(rng, n_tx, length)
        tr_peak = np.sqrt(e_tx * np.sum(np.abs(taps) ** 2))
        flipped = taps[:, ::-1]
        draws = 1000
        competitors = rng.standard_normal((draws, n_tx, length)) + 1j * rng.standard_normal(
            (draws, n_tx, length)
        )
        norms = np.sqrt(np.sum(np.abs(competitors) ** 2, axis=(1, 2), keepdims=True))
        competitors *= np.sqrt(e_tx) / norms
        peaks = np.abs(np.einsum("dan,an->d", competitors, flipped))
        assert np.all(peaks <= tr_peak + 1e-9)


@settings(max_examples=100, deadline=None)
@given(
    parts=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 64), st.just(2)),
        elements=st.floats(-1.0, 1.0, allow_subnormal=False),
    ),
    e_tx=st.floats(0.25, 4.0),
)
def test_joint_normalization_property(parts, e_tx):
    # The bank's summed filter energy is total_energy to 1e-12 relative,
    # tighter than criterion 5's 1e-9.
    taps = parts[..., 0] + 1j * parts[..., 1]
    assume(np.sum(np.abs(taps) ** 2) > 1e-200)  # all-zero CIRs have no bank
    bank = tr_filters(taps, total_energy=e_tx)
    assert abs(np.sum(np.abs(bank) ** 2) - e_tx) <= 1e-12 * e_tx
