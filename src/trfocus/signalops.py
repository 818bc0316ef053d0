"""Sampled-signal primitives shared by the whole simulator.

Everything here works on complex-baseband sequences held as plain
complex arrays: chirp generation and the in-band NMSE of an estimate.
No operation up- or down-converts.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _check_real, _finite_array, _sig3, check_budget
from .errors import AliasingError, DegenerateChannelError, ParameterError

# Bytes a chirp sample takes at the tracemalloc peak of gen_chirp.
_CHIRP_SAMPLE_BYTES = 48


def gen_chirp(bandwidth_hz: float, duration_s: float, sample_rate_hz: float) -> np.ndarray:
    """Linear chirp sweeping [-B/2, +B/2] at complex baseband, as an (n,)
    complex array.

    s[n] = exp(j*pi*kappa*(t_n - T/2)^2) with kappa = B/T and a
    rectangular envelope of unit amplitude.  bandwidth_hz = 0 selects the
    degenerate zero-sweep path (kappa = 0): a constant tone of ones.

    Raises:
        ParameterError: a bandwidth outside [0, inf), a duration, sample
            rate or sample count outside (0, inf), fewer than 2 samples,
            or samples over ENSEMBLE_BUDGET_BYTES.
        AliasingError: sample_rate_hz < bandwidth_hz.
    """
    _check_real("bandwidth_hz", bandwidth_hz, 0.0, ends="[)")
    _check_real("duration_s", duration_s, 0.0)
    _check_real("sample_rate_hz", sample_rate_hz, 0.0)
    _check_real("duration_s times sample_rate_hz", float(duration_s) * float(sample_rate_hz))
    if sample_rate_hz < bandwidth_hz:
        raise AliasingError(
            f"sample rate {sample_rate_hz:g} Hz cannot represent a "
            f"{bandwidth_hz:g} Hz baseband sweep"
        )
    n_samples = int(round(duration_s * sample_rate_hz))
    if n_samples < 2:
        raise ParameterError("chirp must span at least 2 samples")
    check_budget(
        _CHIRP_SAMPLE_BYTES * n_samples, lambda: f"a chirp of {_sig3(n_samples)} samples needs"
    )
    t = np.arange(n_samples) / sample_rate_hz
    kappa = bandwidth_hz / duration_s
    phase = np.pi * kappa * (t - duration_s / 2.0) ** 2
    return np.exp(1j * phase)


def inband_nmse_db(
    estimate,
    reference,
    bandwidth_hz: float,
    sample_rate_hz: float,
) -> float:
    """NMSE (dB) between two tap sequences over the bins |f| <= B/2.

    Both sequences are zero-padded onto a common power-of-two grid; the
    error and reference powers are summed over the in-band bins only.  An
    exact estimate gives -inf; a reference with no in-band power raises
    DegenerateChannelError, and an empty or non-1-D sequence, a bandwidth
    outside [0, inf] or a sample rate outside (0, inf) ParameterError.
    Bandwidth 0 keeps the DC bin and +inf every bin.
    """
    est = _finite_array(estimate, "estimate").astype(np.complex128, copy=False)
    ref = _finite_array(reference, "reference").astype(np.complex128, copy=False)
    if est.ndim != 1 or ref.ndim != 1 or min(est.size, ref.size) == 0:
        raise ParameterError("estimate and reference must be non-empty 1-D sequences")
    _check_real("sample_rate_hz", sample_rate_hz, 0.0)
    _check_real("bandwidth_hz", bandwidth_hz, 0.0, math.inf, "[]")
    n = 1 << int(math.ceil(math.log2(2 * max(est.size, ref.size))))
    spec_est = np.fft.fft(est, n)
    spec_ref = np.fft.fft(ref, n)
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    band = np.abs(freqs) <= bandwidth_hz / 2.0
    err = float(np.sum(np.abs(spec_est[band] - spec_ref[band]) ** 2))
    den = float(np.sum(np.abs(spec_ref[band]) ** 2))
    if den == 0.0:
        raise DegenerateChannelError("reference has no in-band power")
    return 10.0 * math.log10(err / den) if err > 0.0 else -math.inf
