"""Slow reference implementations the pipeline's fast paths are tested
against.  None of these is part of the package: each is the direct,
time-domain form of a computation the package does in one batched pass.
"""

import math

import numpy as np

import trfocus.experiment as experiment
from trfocus.channel import SPEED_OF_LIGHT_M_S as C
from trfocus.errors import (
    DegenerateBackgroundError,
    DegenerateProbeError,
    IllConditionedError,
    ParameterError,
)
from trfocus.experiment import _deconv_grid


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution, length len(a) + len(b) - 1 (np.convolve)."""
    return np.convolve(a, b)


def wiener_deconvolve(
    received: np.ndarray,
    probe: np.ndarray,
    epsilon: float | None = None,
    cir_length: int | None = None,
) -> np.ndarray:
    """Estimate a CIR by regularized deconvolution of a probe transmission.

    Hhat(f) = R(f) * conj(S(f)) / (|S(f)|^2 + epsilon) on the zero-padded
    power-of-two grid covering the received record, inverse-transformed
    and truncated to cir_length taps.  epsilon None selects the noiseless
    default 1e-6 * max|S(f)|^2; cir_length None keeps the natural length
    len(received) - len(probe) + 1.

    Raises:
        ParameterError: received shorter than probe, negative epsilon, or
            non-positive cir_length.
        DegenerateProbeError: probe is identically zero.
        IllConditionedError: epsilon == 0 while some |S(f)| < 1e-12 * max|S|.
    """
    if len(received) < len(probe):
        raise ParameterError("received record shorter than the probe")
    if np.max(np.abs(probe)) == 0.0:
        raise DegenerateProbeError("probe is identically zero")

    nfft = _deconv_grid(len(received))
    spec_probe = np.fft.fft(probe, nfft)
    spec_rx = np.fft.fft(received, nfft)
    power = np.abs(spec_probe) ** 2

    if epsilon is None:
        epsilon = 1e-6 * float(power.max())
    if epsilon < 0:
        raise ParameterError("epsilon must be nonnegative")
    if epsilon == 0.0:
        mags = np.abs(spec_probe)
        if mags.min() < 1e-12 * mags.max():
            raise IllConditionedError("epsilon = 0 with near-zero probe spectrum bins")

    est = np.fft.ifft(spec_rx * np.conj(spec_probe) / (power + epsilon))
    if cir_length is None:
        cir_length = max(len(received) - len(probe) + 1, 1)
    if cir_length < 1:
        raise ParameterError("cir_length must be positive")
    return est[:cir_length]


def naive_taps(paths, position_m, params, length):
    """Direct double-loop evaluation of the plane-wave synthesis formula."""
    fs = params.sample_rate_hz
    h = np.zeros(length, dtype=complex)
    for p in range(len(paths.delays_s)):
        tau = paths.delays_s[p] + position_m * float(paths.axial_cos[p]) / C
        rot = paths.amplitudes[p] * np.exp(-2j * np.pi * params.carrier_hz * tau)
        for n in range(length):
            h[n] += rot * np.sinc(params.bandwidth_hz * (n / fs - tau))
    return h


def convolved_sum(filters, cirs):
    """sum_a np.convolve(filters[a], cirs[a]) in the time domain."""
    return sum(np.convolve(w, h) for w, h in zip(filters, cirs))


def sound_cirs_per_antenna(ensemble, rx_index, chirp_duration_s, sounding_snr_db, rng):
    """experiment.sound_cirs as time-domain convolution, then AWGN, then
    wiener_deconvolve, one antenna at a time."""
    params = ensemble.params
    probe = experiment.gen_chirp(params.bandwidth_hz, chirp_duration_s, params.sample_rate_hz)
    gen = np.random.default_rng(rng)
    estimates = []
    for a in range(ensemble.n_tx):
        rx = convolve(probe, ensemble.cirs[a, rx_index])
        epsilon = None
        if sounding_snr_db is not None:
            power = float(np.mean(np.abs(rx) ** 2))
            sigma2 = power * 10.0 ** (-sounding_snr_db / 10.0)
            noise = gen.standard_normal(len(rx)) + 1j * gen.standard_normal(len(rx))
            rx = rx + np.sqrt(sigma2 / 2.0) * noise
            epsilon = sigma2 * len(rx)
        estimates.append(
            wiener_deconvolve(rx, probe, epsilon, cir_length=ensemble.cir_length)
        )
    return np.array(estimates)


def no_tr_power(ensemble, chirp_duration_s, tx_energy):
    """fig4's no-TR strength per position: every antenna emits the chirp
    scaled to tx_energy, and the record at each position is averaged in
    power over its full length."""
    params = ensemble.params
    probe = experiment.gen_chirp(params.bandwidth_hz, chirp_duration_s, params.sample_rate_hz)
    filt = probe * math.sqrt(tx_energy / np.sum(np.abs(probe) ** 2))
    summed = ensemble.cirs.sum(axis=0)
    return np.array([np.mean(np.abs(np.convolve(filt, h)) ** 2) for h in summed])


def focusing_gain_by_mask(field, target_index):
    """metrics.focusing_gain with the background gathered by a row mask and
    a guard mask through np.ix_."""
    n_rx, n_time = field.field.shape
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
