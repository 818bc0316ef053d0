"""Propagation of precoded transmissions through a channel ensemble.

Produces the space-time received field of a TR bank over the whole grid
and the U x U cross-received table for multi-user (TRDMA) operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelEnsemble
from .errors import DimensionMismatchError, InvalidTargetError, ParameterError
from .precoding import TrFilterBank


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
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "field", arr)

    @property
    def n_positions(self) -> int:
        return self.field.shape[0]


@dataclass(frozen=True)
class TrdmaResult:
    """per_user_rx[v, u] = field at user u's position from user v's precoder."""

    per_user_rx: np.ndarray  # complex, shape (U, U, 2L-1)
    symbol_period_samples: int
    peak_index: int
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.per_user_rx, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError("per_user_rx must have shape (U, U, n_time)")
        object.__setattr__(self, "per_user_rx", arr)

    @property
    def n_users(self) -> int:
        return self.per_user_rx.shape[0]


def _bank_through_channel(bank: TrFilterBank, spectrum: np.ndarray) -> np.ndarray:
    """sum_a w_a * h_{a,x} for every position x; rows of length 2L-1.

    spectrum is fft(h, nfft, axis=2) of CIRs of shape (n_tx, n_rx, L),
    with nfft >= 2L-1 (ChannelEnsemble.spectrum); the filters share L.
    """
    n_out = 2 * bank.filter_length - 1
    spec_w = np.fft.fft(bank.filters, spectrum.shape[2], axis=1)  # (n_tx, nfft)
    spec_y = np.einsum("af,arf->rf", spec_w, spectrum)
    return np.fft.ifft(spec_y, axis=1)[:, :n_out]


def focus_field(bank: TrFilterBank, ensemble: ChannelEnsemble) -> SpaceTimeField:
    """Transmit the bank through every probed CIR of the ensemble.

    y_x[n] = sum_a (w_a * h_{a,x})[n].  With perfect CSI for target x0 the
    sample at the focusing instant L-1 is sqrt(E_tx * sum_a ||h_{a,x0}||^2),
    real and positive.
    """
    if bank.filter_length != ensemble.cir_length:
        raise DimensionMismatchError("filter length differs from CIR length")
    if bank.n_tx != ensemble.n_tx:
        raise DimensionMismatchError("antenna counts differ")
    return SpaceTimeField(
        field=_bank_through_channel(bank, ensemble.spectrum),
        positions_m=ensemble.grid.positions_m,
        peak_index=bank.filter_length - 1,
        sample_rate_hz=ensemble.sample_rate_hz,
        oversample=ensemble.params.oversample,
    )


def trdma_link(
    banks: Sequence[TrFilterBank],
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
    if len(set(int(t) for t in targets)) != n_users:
        raise InvalidTargetError("TRDMA targets must be distinct grid indices")
    if symbol_period_samples < 1:
        raise ParameterError("symbol_period_samples must be >= 1")
    n_rx = len(ensemble.grid)
    for t in targets:
        if not 0 <= int(t) < n_rx:
            raise InvalidTargetError(f"target index {t} outside the grid")
    length = ensemble.cir_length
    for bank in banks:
        if bank.filter_length != length or bank.n_tx != ensemble.n_tx:
            raise DimensionMismatchError("bank dimensions differ from ensemble")
    target_spectra = ensemble.spectrum[:, [int(t) for t in targets], :]  # (n_tx, U, nfft)
    table = np.empty((n_users, n_users, 2 * length - 1), dtype=np.complex128)
    for v, bank in enumerate(banks):
        table[v] = _bank_through_channel(bank, target_spectra)
    return TrdmaResult(
        per_user_rx=table,
        symbol_period_samples=int(symbol_period_samples),
        peak_index=length - 1,
        sample_rate_hz=ensemble.sample_rate_hz,
    )

