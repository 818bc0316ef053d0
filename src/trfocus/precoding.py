"""Time-reversal transmit filters and their frequency-domain twin.

A TR filter bank is a read-only (n_tx, L) complex array: row a re-emits
the conjugated, time-flipped CIR of antenna a.  Maximum-ratio weights
conjugate the channel per frequency bin.  Both are normalized jointly
across antennas to one total transmit energy, and agree bin-by-bin up to
a pure delay of L-1 samples.
"""

from __future__ import annotations

import numpy as np

from .channel import _check_int, _check_real, _finite_array, _sig3, check_budget
from .errors import DegenerateChannelError, DimensionMismatchError


def _stack_cirs(cirs) -> np.ndarray:
    """The per-antenna CIRs as a finite, non-empty (n_tx, L) complex array."""
    taps = _finite_array(cirs, "CIR taps")
    if taps.ndim != 2 or taps.size == 0:
        raise DimensionMismatchError(f"CIRs must form a non-empty (n_tx, L) array: {taps.shape}")
    return taps.astype(np.complex128, copy=False)


def _joint_scale(taps: np.ndarray, total_energy: float) -> float:
    _check_real("total_energy", total_energy, 0.0)
    total = float(np.sum(np.abs(taps) ** 2))
    if total == 0.0:
        raise DegenerateChannelError("all CIRs are zero")
    return float(np.sqrt(total / total_energy))


def tr_filters(cirs, total_energy: float = 1.0) -> np.ndarray:
    """The TR bank w_a[n] = conj(h_a[L-1-n]) / c of the (n_tx, L) array-like
    of per-antenna CIRs h, as a read-only complex (n_tx, L) array.

    c = sqrt(sum_a ||h_a||^2 / total_energy), so the bank's summed filter
    energy equals total_energy to within 1e-12 relative.
    """
    taps = _stack_cirs(cirs)
    bank = np.conj(taps[:, ::-1]) / _joint_scale(taps, total_energy)
    bank.setflags(write=False)
    return bank


def mrt_weights(cirs, n_bins: int, total_energy: float = 1.0) -> np.ndarray:
    """Conjugate per-bin weights W_a[k] = conj(H_a[k]) / c, as a read-only
    complex array of shape (n_tx, n_bins).

    Uses the same joint normalization constant as :func:`tr_filters`, so
    by Parseval the bank and the weights carry the same total energy.
    n_bins must be an integer >= L whose weights fit ENSEMBLE_BUDGET_BYTES.
    """
    taps = _stack_cirs(cirs)
    n_tx, length = taps.shape
    _check_int("n_bins", n_bins, low=length)
    check_budget(16 * n_tx * n_bins, lambda: f"MRT weights for {n_tx} x {_sig3(n_bins)} bins need")
    scale = _joint_scale(taps, total_energy)
    weights = np.fft.fft(taps, n_bins, axis=1)
    np.conj(weights, out=weights)
    weights /= scale  # in place, so the weights are the one array the budget counts
    weights.setflags(write=False)
    return weights


def equivalence_residual(bank, cirs) -> float:
    """How far the (n_tx, L) array-like bank is from conjugate per-bin
    precoding of the same total energy, sum |w|^2.

    Transforms the TR filters on an n_bins = 2L-1 grid, removes the pure
    delay of L-1 samples, and returns the larger of the complex residual
    max |W_tr e^{+j 2 pi k (L-1)/N} - W_mrt| and the per-bin magnitude
    residual max ||W_tr| - |W_mrt||, both relative to max |W_mrt|.
    Exact TR banks built from the same CIRs give < 1e-10.  A bank of zero
    energy raises ParameterError.
    """
    filters, taps = _stack_cirs(bank), _stack_cirs(cirs)
    if filters.shape != taps.shape:
        raise DimensionMismatchError("bank and CIR dimensions differ")
    length = taps.shape[1]
    n_bins = 2 * length - 1
    energy = float(np.sum(np.abs(filters) ** 2))
    _check_real("the bank's energy sum |w|^2", energy, 0.0)
    w_tr = np.fft.fft(filters, n_bins, axis=1)
    w_mrt = mrt_weights(taps, n_bins, energy)
    ref = float(np.max(np.abs(w_mrt)))
    if ref == 0.0:
        raise DegenerateChannelError("all CIRs are zero")
    k = np.arange(n_bins)
    undelayed = w_tr * np.exp(2j * np.pi * k * (length - 1) / n_bins)
    complex_resid = float(np.max(np.abs(undelayed - w_mrt))) / ref
    mag_resid = float(np.max(np.abs(np.abs(w_tr) - np.abs(w_mrt)))) / ref
    return max(complex_resid, mag_resid)
