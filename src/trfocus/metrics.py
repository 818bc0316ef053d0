"""Figures of merit extracted from simulated received fields.

All widths are half-power (-3 dB) widths with linear interpolation
between samples; the same definition is used for time and space.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import _check_int, _check_real, _finite_array
from .errors import DegenerateBackgroundError, EdgePeakError, ParameterError
from .link import SpaceTimeField, TrdmaResult

_POWER_FLOOR = 1e-300  # keeps dB conversion finite on exact zeros


def _power_db(power: np.ndarray) -> np.ndarray:
    """power in dB, floored at _POWER_FLOOR."""
    return 10.0 * np.log10(np.maximum(power, _POWER_FLOOR))


def _db_profile(power: np.ndarray) -> np.ndarray:
    """power in dB relative to its peak, 0 dB there."""
    ref = float(power.max())
    return 10.0 * np.log10(np.maximum(power, _POWER_FLOOR) / max(ref, _POWER_FLOOR))


def _half_power_width(power: np.ndarray, coords: np.ndarray) -> float:
    """Width between the half-power crossings bracketing the global max.

    Ties on the maximum break toward the lowest index; crossings are
    linearly interpolated in the power domain.  Raises EdgePeakError when
    a crossing is missing on either side.
    """
    peak = int(np.argmax(power))
    half = power[peak] / 2.0

    left = None
    for i in range(peak - 1, -1, -1):
        if power[i] < half:
            frac = (half - power[i]) / (power[i + 1] - power[i])
            left = coords[i] + frac * (coords[i + 1] - coords[i])
            break
    right = None
    for i in range(peak + 1, power.size):
        if power[i] < half:
            frac = (half - power[i - 1]) / (power[i] - power[i - 1])
            right = coords[i - 1] + frac * (coords[i] - coords[i - 1])
            break
    if left is None or right is None:
        raise EdgePeakError("peak has no bracketing half-power crossing")
    return float(right - left)


def temporal_fwhm(y, sample_rate_hz: float) -> float:
    """Half-power width, in seconds, of |y[n]|^2 around its global peak."""
    samples = _finite_array(y, "y").astype(np.complex128, copy=False)
    if samples.ndim != 1 or samples.size < 3:
        raise ParameterError("need a 1-D record of at least 3 samples")
    _check_real("sample_rate_hz", sample_rate_hz, 0.0)
    power = np.abs(samples) ** 2
    return _half_power_width(power, np.arange(samples.size) / sample_rate_hz)


class SpatialProfile(NamedTuple):
    power_db: np.ndarray  # normalized to the spatial peak
    fwhm_m: float


def spatial_profile(field: SpaceTimeField, peak_time_index: int) -> SpatialProfile:
    """Per-position power at the focusing time index, plus spatial FWHM.

    Power is normalized to the spatial peak; the width uses the same
    interpolated half-power rule as the temporal metric, in meters.
    A peak on the first or last grid position raises EdgePeakError.
    """
    n_time = field.field.shape[1]
    _check_int("peak_time_index", peak_time_index, end=n_time)
    power = np.abs(field.field[:, peak_time_index]) ** 2
    fwhm = _half_power_width(power, field.positions_m)
    return SpatialProfile(power_db=_db_profile(power), fwhm_m=fwhm)


def focusing_gain(field: SpaceTimeField, target_index: int) -> float:
    """Peak power at the target over the mean off-target background, in dB.

    Background: every sample whose spatial index differs from the target
    and whose time offset from the target's peak exceeds the guard of
    2 * oversample samples.
    """
    n_rx, n_time = field.field.shape
    _check_int("target_index", target_index, end=n_rx)
    power = np.abs(field.field) ** 2
    target_row = power[target_index]
    peak_n = int(np.argmax(target_row))
    peak = float(target_row[peak_n])
    time_mask = np.abs(np.arange(n_time) - peak_n) > 2 * field.oversample
    row_mask = np.ones(n_rx, dtype=bool)
    row_mask[target_index] = False
    background = power[np.ix_(row_mask, time_mask)]
    if background.size == 0:
        raise DegenerateBackgroundError("no background samples outside the guard")
    mean_bg = float(background.mean())
    if mean_bg == 0.0:
        raise DegenerateBackgroundError("background power is identically zero")
    return 10.0 * math.log10(peak / mean_bg)


def _ratio_db(power: float, other: float) -> float:
    """10 log10(power / other): +inf when other is 0, -inf when the ratio
    is 0 (no power over a nonzero other)."""
    if other == 0.0:
        return math.inf
    ratio = power / other
    return 10.0 * math.log10(ratio) if ratio > 0.0 else -math.inf


def sir(trdma: TrdmaResult) -> np.ndarray:
    """Per-user signal-to-interference ratio in dB at the focusing instant.

    SIR_u = |at_peak[u,u]|^2 / sum_{v != u} |at_peak[v,u]|^2.  Zero
    interference yields the +inf sentinel, and a zero signal under nonzero
    interference -inf.
    """
    n_users = trdma.at_peak.shape[0]
    if n_users < 2:
        raise ParameterError("SIR needs at least two users")
    at_peak = np.abs(trdma.at_peak) ** 2  # (v, u)
    out = np.empty(n_users)
    for u in range(n_users):
        signal = at_peak[u, u]
        interference = float(at_peak[:, u].sum() - signal)
        out[u] = _ratio_db(signal, interference)
    return out


def isi_ratio(trdma: TrdmaResult) -> np.ndarray:
    """Per-user peak power over summed own-stream power at other symbol
    instants (multiples of the symbol period away from the peak), in dB.

    +inf sentinel when the leak is zero, as when no other symbol instant
    falls inside the record; -inf when the peak is zero but the leak is not.
    A symbol period that is not an integer >= 1, which would never end the
    offset loop, and a peak index outside the record raise ParameterError.
    """
    n_users, n_time = trdma.own_rx.shape
    peak_n = trdma.peak_index
    period = trdma.symbol_period_samples
    _check_int("symbol_period_samples", period, low=1)
    _check_int("peak_index", peak_n, end=n_time)
    offsets = []
    m = 1
    while peak_n + m * period < n_time or peak_n - m * period >= 0:
        if peak_n + m * period < n_time:
            offsets.append(peak_n + m * period)
        if peak_n - m * period >= 0:
            offsets.append(peak_n - m * period)
        m += 1
    out = np.empty(n_users)
    for u in range(n_users):
        own = np.abs(trdma.own_rx[u]) ** 2
        peak = float(own[peak_n])
        leak = float(own[offsets].sum()) if offsets else 0.0
        out[u] = _ratio_db(peak, leak)
    return out
