"""Sampled-signal primitives shared by the whole simulator.

Everything here works on complex-baseband sequences: chirp generation,
linear convolution and regularized (Wiener) deconvolution for
channel-impulse-response estimation.  The
carrier frequency attached to a signal is metadata only; no operation
up- or down-converts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .errors import (
    AliasingError,
    DegenerateProbeError,
    IllConditionedError,
    ParameterError,
    RateMismatchError,
)


def _as_readonly_complex(samples) -> np.ndarray:
    arr = np.array(samples, dtype=np.complex128, copy=True)
    if arr.ndim != 1:
        raise ParameterError("sample data must be one-dimensional")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled complex-baseband signal.

    Attributes:
        samples: complex sample sequence (read-only after construction).
        sample_rate_hz: sampling rate, > 0.
        carrier_hz: nominal carrier frequency, metadata only, >= 0.
    """

    samples: np.ndarray
    sample_rate_hz: float
    carrier_hz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_readonly_complex(self.samples))
        if self.samples.size == 0:
            raise ParameterError("waveform must contain at least one sample")
        if not self.sample_rate_hz > 0:
            raise ParameterError("sample_rate_hz must be positive")
        if self.carrier_hz < 0:
            raise ParameterError("carrier_hz must be nonnegative")
        if not np.all(np.isfinite(self.samples)):
            raise ParameterError("waveform samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class Cir:
    """Complex-baseband channel impulse response for one Tx/Rx pair.

    Attributes:
        taps: complex tap sequence (read-only after construction).
        sample_rate_hz: tap rate, > 0.
        carrier_hz: carrier the response was measured around, > 0.
    """

    taps: np.ndarray
    sample_rate_hz: float
    carrier_hz: float

    def __post_init__(self):
        object.__setattr__(self, "taps", _as_readonly_complex(self.taps))
        if self.taps.size == 0:
            raise ParameterError("CIR must contain at least one tap")
        if not self.sample_rate_hz > 0:
            raise ParameterError("sample_rate_hz must be positive")
        if not self.carrier_hz > 0:
            raise ParameterError("carrier_hz must be positive")
        if not np.all(np.isfinite(self.taps)):
            raise ParameterError("CIR taps must be finite")

    def __len__(self) -> int:
        return self.taps.size

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))


def gen_chirp(
    bandwidth_hz: float,
    duration_s: float,
    sample_rate_hz: float,
    carrier_hz: float = 0.0,
) -> Waveform:
    """Linear chirp sweeping [-B/2, +B/2] at complex baseband.

    s[n] = exp(j*pi*kappa*(t_n - T/2)^2) with kappa = B/T and a
    rectangular envelope of unit amplitude.  bandwidth_hz = 0 selects the
    degenerate zero-sweep path (kappa = 0): a constant tone of ones.

    Raises:
        ParameterError: negative bandwidth, non-positive duration or
            sample rate, or fewer than 2 samples requested.
        AliasingError: sample_rate_hz < bandwidth_hz.
    """
    if bandwidth_hz < 0:
        raise ParameterError("bandwidth_hz must be nonnegative")
    if duration_s <= 0 or sample_rate_hz <= 0:
        raise ParameterError("duration_s and sample_rate_hz must be positive")
    if sample_rate_hz < bandwidth_hz:
        raise AliasingError(
            f"sample rate {sample_rate_hz:g} Hz cannot represent a "
            f"{bandwidth_hz:g} Hz baseband sweep"
        )
    n_samples = int(round(duration_s * sample_rate_hz))
    if n_samples < 2:
        raise ParameterError("chirp must span at least 2 samples")
    t = np.arange(n_samples) / sample_rate_hz
    kappa = bandwidth_hz / duration_s
    phase = np.pi * kappa * (t - duration_s / 2.0) ** 2
    return Waveform(np.exp(1j * phase), sample_rate_hz, carrier_hz)


def convolve(a: Waveform, b: Waveform) -> Waveform:
    """Full linear convolution, length len(a) + len(b) - 1.

    Uses transform-domain fast convolution; matches the direct double
    sum to machine precision.
    """
    if a.sample_rate_hz != b.sample_rate_hz:
        raise RateMismatchError(
            f"sample rates differ: {a.sample_rate_hz:g} vs {b.sample_rate_hz:g}"
        )
    out = scipy.signal.fftconvolve(a.samples, b.samples, mode="full")
    carrier = a.carrier_hz if a.carrier_hz > 0 else b.carrier_hz
    return Waveform(out, a.sample_rate_hz, carrier)


def _deconv_grid(n_received: int) -> int:
    return 1 << max(int(math.ceil(math.log2(n_received))), 0)


def wiener_deconvolve(
    received: Waveform,
    probe: Waveform,
    epsilon: float | None = None,
    cir_length: int | None = None,
) -> Cir:
    """Estimate a CIR by regularized deconvolution of a probe transmission.

    Hhat(f) = R(f) * conj(S(f)) / (|S(f)|^2 + epsilon) on a zero-padded
    power-of-two grid covering the received record, inverse-transformed
    and truncated to cir_length taps.

    Args:
        received: record of the probe after the channel (same rate as probe).
        epsilon: regularizer, >= 0.  Rule of thumb: the per-bin noise power
            (noise variance times record length).  None selects the
            noiseless default 1e-6 * max|S(f)|^2.
        cir_length: declared CIR length; None keeps the natural length
            len(received) - len(probe) + 1.

    Raises:
        RateMismatchError: sample rates differ.
        ParameterError: received shorter than probe, negative epsilon, or
            non-positive cir_length.
        DegenerateProbeError: probe is identically zero.
        IllConditionedError: epsilon == 0 while some |S(f)| < 1e-12 * max|S|.
    """
    if received.sample_rate_hz != probe.sample_rate_hz:
        raise RateMismatchError("received and probe sample rates differ")
    if len(received) < len(probe):
        raise ParameterError("received record shorter than the probe")
    if np.max(np.abs(probe.samples)) == 0.0:
        raise DegenerateProbeError("probe is identically zero")

    nfft = _deconv_grid(len(received))
    spec_probe = np.fft.fft(probe.samples, nfft)
    spec_rx = np.fft.fft(received.samples, nfft)
    power = np.abs(spec_probe) ** 2

    if epsilon is None:
        epsilon = 1e-6 * float(power.max())
    if epsilon < 0:
        raise ParameterError("epsilon must be nonnegative")
    if epsilon == 0.0:
        mags = np.abs(spec_probe)
        if mags.min() < 1e-12 * mags.max():
            raise IllConditionedError(
                "epsilon = 0 with near-zero probe spectrum bins"
            )

    est = np.fft.ifft(spec_rx * np.conj(spec_probe) / (power + epsilon))
    if cir_length is None:
        cir_length = max(len(received) - len(probe) + 1, 1)
    if cir_length < 1:
        raise ParameterError("cir_length must be positive")
    carrier = received.carrier_hz if received.carrier_hz > 0 else probe.carrier_hz
    return Cir(est[:cir_length], received.sample_rate_hz, carrier)


def inband_nmse_db(
    estimate,
    reference,
    bandwidth_hz: float,
    sample_rate_hz: float,
) -> float:
    """NMSE (dB) between two tap sequences over the bins |f| <= B/2.

    Both sequences are zero-padded onto a common power-of-two grid; the
    error and reference powers are summed over the in-band bins only.
    """
    est = np.asarray(estimate, dtype=np.complex128)
    ref = np.asarray(reference, dtype=np.complex128)
    n = 1 << int(math.ceil(math.log2(2 * max(est.size, ref.size))))
    spec_est = np.fft.fft(est, n)
    spec_ref = np.fft.fft(ref, n)
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    band = np.abs(freqs) <= bandwidth_hz / 2.0
    err = float(np.sum(np.abs(spec_est[band] - spec_ref[band]) ** 2))
    den = float(np.sum(np.abs(spec_ref[band]) ** 2))
    return 10.0 * math.log10(err / den)
