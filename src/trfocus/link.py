"""Propagation of precoded transmissions through a channel ensemble.

Produces the space-time received field of a TR bank over the whole grid
and, for multi-user (TRDMA) operation, what SIR and ISI read of the U
users' cross reception: the U x U samples at the focusing instant and
each user's own received stream, O(U (U + L)) values in all.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelEnsemble, _check_int, _finite_array, check_budget
from .errors import DimensionMismatchError, InvalidTargetError


class SpaceTimeField(NamedTuple):
    """Received complex field indexed by (rx grid position, time sample),
    as focus_field returns it."""

    field: np.ndarray  # complex, shape (n_rx, 2L-1), read-only
    positions_m: np.ndarray
    peak_index: int  # nominal focusing instant, L-1
    sample_rate_hz: float
    oversample: int


def check_trdma_size(n_users: int, cir_length: int) -> None:
    """Raise ParameterError when the two arrays of a U-user TrdmaResult,
    16 U (U + 2L - 1) bytes, would exceed ENSEMBLE_BUDGET_BYTES."""
    check_budget(
        16 * n_users * (n_users + 2 * cir_length - 1),
        lambda: f"a TRDMA link of {n_users} users and {cir_length}-tap CIRs needs",
    )


class TrdmaResult(NamedTuple):
    """What U TRDMA users receive, as far as SIR and ISI read it, as
    trdma_link returns it.

    at_peak[v, u] is the sample at the focusing instant at user u's
    position from user v's precoder, shape (U, U); own_rx[u] is user u's
    whole record of its own stream, shape (U, 2L-1), so own_rx[u,
    peak_index] is at_peak[u, u].  Together they hold 16 U (U + 2L - 1)
    bytes; the off-peak cross samples, 16 U^2 (2L - 1) bytes, are never
    kept.  Both arrays are read-only.  isi_ratio refuses a
    symbol_period_samples that is not an integer >= 1 and a peak_index
    outside an own_rx row.
    """

    at_peak: np.ndarray  # complex, shape (U, U)
    own_rx: np.ndarray  # complex, shape (U, 2L-1)
    symbol_period_samples: int
    peak_index: int


def _check_bank(bank, ensemble: ChannelEnsemble) -> None:
    """A bank is a finite numeric (n_tx, L) array, as tr_filters returns."""
    shape = (ensemble.n_tx, ensemble.cir_length)
    if not isinstance(bank, np.ndarray) or bank.shape != shape:
        got = getattr(bank, "shape", type(bank).__name__)
        raise DimensionMismatchError(f"a TR bank must be an {shape} array, got {got}")
    _finite_array(bank, "a TR bank")


def _bank_through_channel(bank: np.ndarray, spectrum_fm: np.ndarray) -> np.ndarray:
    """sum_a w_a * h_{a,x} for every position x; rows of length 2L-1.

    spectrum_fm is ChannelEnsemble.spectrum.transpose(2, 0, 1), or target
    columns of it: (nfft, n_tx, n_rx) with nfft >= 2L-1; the filters share
    L.  Each bin is one (1 x n_tx) @ (n_tx x n_rx) BLAS product.
    """
    n_out = 2 * bank.shape[1] - 1
    spec_w = np.fft.fft(bank, spectrum_fm.shape[0], axis=1)  # (n_tx, nfft)
    spec_y = np.matmul(spec_w.T[:, None, :], spectrum_fm)  # (nfft, 1, n_rx)
    return np.fft.ifft(spec_y[:, 0, :].T, axis=1)[:, :n_out]


def focus_field(bank: np.ndarray, ensemble: ChannelEnsemble) -> SpaceTimeField:
    """Transmit the bank through every probed CIR of the ensemble.

    y_x[n] = sum_a (w_a * h_{a,x})[n].  With perfect CSI for target x0 the
    sample at the focusing instant L-1 is sqrt(E_tx * sum_a ||h_{a,x0}||^2),
    real and positive.
    """
    _check_bank(bank, ensemble)
    field = _bank_through_channel(bank, ensemble.spectrum.transpose(2, 0, 1))
    field.setflags(write=False)
    return SpaceTimeField(
        field=field,
        positions_m=ensemble.grid.positions_m,
        peak_index=ensemble.cir_length - 1,
        sample_rate_hz=ensemble.sample_rate_hz,
        oversample=ensemble.params.oversample,
    )


def trdma_link(
    banks: Sequence[np.ndarray],
    ensemble: ChannelEnsemble,
    targets: Sequence[int],
    symbol_period_samples: int,
) -> TrdmaResult:
    """Reception of U users precoded towards their own targets.

    Each user transmits a unit impulse shaped by its own TR bank.  User
    v's own row comes from running bank v through its own target's
    spectrum only.  The focusing-instant samples are inner products of the
    time-flipped banks with the targets' CIRs, one (U x L) @ (L x U)
    product per antenna, except at_peak[v, v], which is copied from
    own_rx[v], so that own_rx[v, peak_index] == at_peak[v, v] exactly.
    A symbol_period_samples that is not an integer >= 1, or a result over
    ENSEMBLE_BUDGET_BYTES, raises ParameterError before anything is
    propagated.
    """
    try:
        n_users, n_targets = len(banks), len(targets)
    except TypeError as exc:
        raise DimensionMismatchError("banks and targets must be sequences") from exc
    if n_users != n_targets:
        raise DimensionMismatchError("one target index per bank required")
    for t in targets:
        ensemble.check_rx(t)
    if len(set(targets)) != n_users:
        raise InvalidTargetError("TRDMA targets must be distinct grid indices")
    _check_int("symbol_period_samples", symbol_period_samples, low=1)
    length = ensemble.cir_length
    check_trdma_size(n_users, length)
    for bank in banks:
        _check_bank(bank, ensemble)
    spectrum_fm = ensemble.spectrum.transpose(2, 0, 1)
    columns = list(targets)
    own_rx = np.empty((n_users, 2 * length - 1), dtype=np.complex128)
    for v, (bank, t) in enumerate(zip(banks, columns)):
        own_rx[v] = _bank_through_channel(bank, spectrum_fm[:, :, t : t + 1])[0]
    # Sample L-1 of bank v at user u is sum_a sum_n w_{v,a}[n] h_{a,u}[L-1-n]:
    # per antenna, the time-flipped banks times the targets' CIRs.
    at_peak = np.zeros((n_users, n_users), dtype=np.complex128)
    for a in range(ensemble.n_tx):
        flipped = np.stack([bank[a, ::-1] for bank in banks])  # (U, L)
        at_peak += flipped @ ensemble.cirs[a, columns].T
    np.fill_diagonal(at_peak, own_rx[:, length - 1])
    at_peak.setflags(write=False)
    own_rx.setflags(write=False)
    return TrdmaResult(
        at_peak=at_peak,
        own_rx=own_rx,
        symbol_period_samples=symbol_period_samples,
        peak_index=length - 1,
    )
