"""Propagation of precoded transmissions through a channel ensemble.

Produces the space-time received field of a TR bank over the whole grid
and the U x U cross-received table for multi-user (TRDMA) operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelEnsemble, _is_index
from .errors import DimensionMismatchError, InvalidTargetError, ParameterError


@dataclass(frozen=True)
class SpaceTimeField:
    """Received complex field indexed by (rx grid position, time sample)."""

    field: np.ndarray  # complex, shape (n_rx, 2L-1)
    positions_m: np.ndarray
    peak_index: int  # nominal focusing instant, L-1
    sample_rate_hz: float
    oversample: int

    def __post_init__(self):
        arr = np.asarray(self.field, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != np.asarray(self.positions_m).size:
            raise DimensionMismatchError("field must have shape (n_rx, n_time)")
        if arr.flags.writeable:  # a writable array is copied, never frozen
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "field", arr)

    @property
    def n_positions(self) -> int:
        return self.field.shape[0]


@dataclass(frozen=True)
class TrdmaResult:
    """per_user_rx[v, u] = field at user u's position from user v's precoder.

    symbol_period_samples is an integer >= 1 and peak_index an index into
    the record; anything else raises ParameterError.
    """

    per_user_rx: np.ndarray  # complex, shape (U, U, 2L-1)
    symbol_period_samples: int
    peak_index: int

    def __post_init__(self):
        arr = np.asarray(self.per_user_rx, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError("per_user_rx must have shape (U, U, n_time)")
        period = self.symbol_period_samples
        if isinstance(period, bool) or not isinstance(period, (int, np.integer)) or period < 1:
            raise ParameterError(f"symbol_period_samples must be an integer >= 1: {period!r}")
        if not _is_index(self.peak_index, arr.shape[2]):
            raise ParameterError(f"peak_index {self.peak_index!r} is not in range({arr.shape[2]})")
        object.__setattr__(self, "per_user_rx", arr)

    @property
    def n_users(self) -> int:
        return self.per_user_rx.shape[0]


def _check_bank(bank, ensemble: ChannelEnsemble) -> None:
    """A bank is an (n_tx, L) array, as tr_filters returns."""
    shape = (ensemble.n_tx, ensemble.cir_length)
    if not isinstance(bank, np.ndarray) or bank.shape != shape:
        got = getattr(bank, "shape", type(bank).__name__)
        raise DimensionMismatchError(f"a TR bank must be an {shape} array, got {got}")


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
    field.setflags(write=False)  # SpaceTimeField keeps it without a copy
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
    """Cross-received table for U users precoded towards their own targets.

    Each user transmits a unit impulse shaped by its own TR bank; entry
    [v, u] is the resulting field at user u's grid position.  Downstream
    SIR/ISI metrics consume this table.
    """
    n_users = len(banks)
    if n_users != len(targets):
        raise DimensionMismatchError("one target index per bank required")
    for t in targets:
        ensemble.check_rx(t)
    if len(set(targets)) != n_users:
        raise InvalidTargetError("TRDMA targets must be distinct grid indices")
    length = ensemble.cir_length
    for bank in banks:
        _check_bank(bank, ensemble)
    target_spectra = ensemble.spectrum.transpose(2, 0, 1)[:, :, list(targets)]  # (nfft, n_tx, U)
    table = np.empty((n_users, n_users, 2 * length - 1), dtype=np.complex128)
    for v, bank in enumerate(banks):
        table[v] = _bank_through_channel(bank, target_spectra)
    return TrdmaResult(
        per_user_rx=table,
        symbol_period_samples=symbol_period_samples,
        peak_index=length - 1,
    )

