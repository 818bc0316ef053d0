"""Unit tests for the sampled-signal primitives, and for the convolution
and Wiener-deconvolution oracles that sounding is tested against."""

import math

import numpy as np
import pytest

from oracles import convolve, wiener_deconvolve
from trfocus.errors import (
    AliasingError,
    DegenerateChannelError,
    DegenerateProbeError,
    IllConditionedError,
    ParameterError,
)
from trfocus.signalops import gen_chirp, inband_nmse_db


def nmse_db(est, ref):
    est = np.asarray(est)
    ref = np.asarray(ref)
    return 10 * np.log10(np.sum(np.abs(est - ref) ** 2) / np.sum(np.abs(ref) ** 2))


def random_waveform(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestGenChirp:
    def test_400mhz_sweep_at_10gsps(self):
        # B = 400 MHz, T = 1 us, f_s = 10 GS/s: 10000 samples sweeping
        # -200 -> +200 MHz.
        w = gen_chirp(400e6, 1e-6, 10e9)
        assert len(w) == 10000
        freq = np.diff(np.unwrap(np.angle(w))) * 10e9 / (2 * np.pi)
        assert freq[0] == pytest.approx(-200e6, rel=1e-3)
        assert freq[-1] == pytest.approx(200e6, rel=1e-3)

    def test_zero_sweep_is_all_ones(self):
        w = gen_chirp(0.0, 1e-6, 1e9)
        assert np.all(w == 1.0 + 0.0j)

    def test_phase_ramp_matches_closed_form(self):
        # Finite difference of the unwrapped phase reproduces the linear
        # ramp kappa * (t - T/2) to well under 1e-6 * B.
        bandwidth, duration, rate = 200e6, 2e-6, 2e9
        w = gen_chirp(bandwidth, duration, rate)
        freq = np.diff(np.unwrap(np.angle(w))) * rate / (2 * np.pi)
        t_mid = (np.arange(len(w) - 1) + 0.5) / rate
        expected = (bandwidth / duration) * (t_mid - duration / 2)
        assert np.max(np.abs(freq - expected)) < 1e-6 * bandwidth

    def test_unit_amplitude_and_inband_energy(self):
        w = gen_chirp(100e6, 1e-6, 400e6)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12
        spec = np.fft.fft(w)
        freqs = np.fft.fftfreq(len(w), d=1 / 400e6)
        inband = np.abs(freqs) <= 50e6 * 1.05
        assert np.sum(np.abs(spec[inband]) ** 2) / np.sum(np.abs(spec) ** 2) > 0.9

    def test_errors(self):
        for bandwidth in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="bandwidth_hz"):
                gen_chirp(bandwidth, 1.0, 10.0)
        for duration in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                gen_chirp(1.0, duration, 10.0)
        with pytest.raises(ParameterError):
            gen_chirp(1.0, 1.0, -10.0)
        with pytest.raises(AliasingError):
            gen_chirp(10.0, 1.0, 5.0)
        with pytest.raises(ParameterError):
            gen_chirp(0.5, 1.0, 1.0)  # one sample


class TestInbandNmse:
    def test_exact_estimate_is_minus_inf(self):
        ref = random_waveform(np.random.default_rng(4), 16)
        assert inband_nmse_db(ref.copy(), ref, 0.5, 1.0) == -math.inf

    def test_reference_without_inband_power(self):
        with pytest.raises(DegenerateChannelError, match="in-band power"):
            inband_nmse_db(np.ones(4), np.zeros(4), 0.5, 1.0)
        with pytest.raises(DegenerateChannelError, match="in-band power"):
            inband_nmse_db(np.zeros(4), np.zeros(4), 0.5, 1.0)

    def test_errors(self):
        taps = np.ones(4)
        for est, ref in ((taps, []), ([], taps), (np.ones((2, 4)), np.ones((2, 4)))):
            with pytest.raises(ParameterError, match="non-empty 1-D"):
                inband_nmse_db(est, ref, 0.5, 1.0)
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="sample_rate_hz"):
                inband_nmse_db(taps, 2 * taps, 0.5, rate)
        # A NaN or negative bandwidth is the caller's error, not an empty
        # band; 0 keeps the DC bin and +inf every bin.
        for bandwidth in (math.nan, -1.0):
            with pytest.raises(ParameterError, match="bandwidth_hz"):
                inband_nmse_db(taps, 2 * taps, bandwidth, 1.0)
        # A NaN estimate would read as an exact one, -inf dB.
        for est, ref in (([math.nan, 1.0], taps), (taps, [1.0, math.inf]), (["1"], taps)):
            with pytest.raises(ParameterError, match="estimate|reference"):
                inband_nmse_db(est, ref, 0.5, 1.0)
        for bandwidth in (0.0, math.inf):
            nmse = inband_nmse_db(taps, 2 * taps, bandwidth, 1.0)
            assert nmse == pytest.approx(10.0 * math.log10(0.25))


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(3)
        a = random_waveform(rng, 17)
        delta = np.array([1.0])
        out = convolve(a, delta)
        assert len(out) == len(a)
        np.testing.assert_array_equal(out, a)

    @pytest.mark.parametrize("na,nb", [(1, 1), (5, 3), (64, 64), (33, 7)])
    def test_matches_direct_double_sum(self, na, nb):
        rng = np.random.default_rng(na * 100 + nb)
        a = random_waveform(rng, na)
        b = random_waveform(rng, nb)
        direct = np.zeros(na + nb - 1, dtype=complex)
        for i in range(na):
            for j in range(nb):
                direct[i + j] += a[i] * b[j]
        out = convolve(a, b)
        assert np.linalg.norm(out - direct) < 1e-10 * np.linalg.norm(direct)

    def test_fast_equals_direct_up_to_128(self):
        rng = np.random.default_rng(7)
        for n in (2, 16, 100, 128):
            a = random_waveform(rng, n)
            b = random_waveform(rng, n)
            direct = np.convolve(a, b)
            out = convolve(a, b)
            assert np.linalg.norm(out - direct) < 1e-10 * np.linalg.norm(direct)

    def test_commutative(self):
        rng = np.random.default_rng(11)
        a = random_waveform(rng, 40)
        b = random_waveform(rng, 23)
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert np.max(np.abs(ab - ba)) < 1e-12 * np.max(np.abs(ab))


class TestWienerDeconvolve:
    def full_band_probe(self, n=512, rate=1.0):
        return gen_chirp(rate, n / rate, rate)

    def test_identity_channel(self):
        probe = self.full_band_probe()
        est = wiener_deconvolve(probe, probe, cir_length=32)
        mags = np.abs(est)
        assert mags[0] >= 0.99
        assert mags[1:].max() <= 0.01

    def test_noiseless_synthesis_oracle(self):
        rng = np.random.default_rng(21)
        probe = self.full_band_probe()
        h_true = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) / np.sqrt(2)
        received = convolve(probe, h_true)
        est = wiener_deconvolve(received, probe, cir_length=32)
        assert inband_nmse_db(est, h_true, 1.0, 1.0) < -40
        assert nmse_db(est, h_true) < -40

    def test_30db_snr_monte_carlo(self):
        rng = np.random.default_rng(22)
        probe = self.full_band_probe()
        ratios = []
        for _ in range(100):
            h_true = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) / np.sqrt(2)
            clean = convolve(probe, h_true)
            power = np.mean(np.abs(clean) ** 2)
            sigma2 = power / 10 ** (30 / 10)
            noise = np.sqrt(sigma2 / 2) * (
                rng.standard_normal(len(clean)) + 1j * rng.standard_normal(len(clean))
            )
            noisy = clean + noise
            est = wiener_deconvolve(noisy, probe, epsilon=sigma2 * len(noisy), cir_length=32)
            ratios.append(
                np.sum(np.abs(est - h_true) ** 2) / np.sum(np.abs(h_true) ** 2)
            )
        assert 10 * np.log10(np.mean(ratios)) < -20

    def test_nmse_improves_with_snr(self):
        # Mean NMSE decreases (within Monte-Carlo slack) from 0 to 40 dB.
        rng = np.random.default_rng(23)
        probe = self.full_band_probe(n=256)
        means = []
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            ratios = []
            for _ in range(20):
                h_true = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
                clean = convolve(probe, h_true)
                power = np.mean(np.abs(clean) ** 2)
                sigma2 = power / 10 ** (snr_db / 10)
                noise = np.sqrt(sigma2 / 2) * (
                    rng.standard_normal(len(clean)) + 1j * rng.standard_normal(len(clean))
                )
                noisy = clean + noise
                est = wiener_deconvolve(noisy, probe, epsilon=sigma2 * len(noisy), cir_length=16)
                ratios.append(
                    np.sum(np.abs(est - h_true) ** 2) / np.sum(np.abs(h_true) ** 2)
                )
            means.append(np.mean(ratios))
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo < hi * 1.1  # monotone within Monte-Carlo slack

    def test_errors(self):
        probe = self.full_band_probe(n=64)
        short = probe[:32]
        with pytest.raises(ParameterError):
            wiener_deconvolve(short, probe)
        zero = np.zeros(64)
        with pytest.raises(DegenerateProbeError):
            wiener_deconvolve(probe, zero)
        # A DC-only probe has exact spectral nulls off bin zero.
        dc = np.ones(64)
        with pytest.raises(IllConditionedError):
            wiener_deconvolve(dc, dc, epsilon=0.0)
        with pytest.raises(ParameterError):
            wiener_deconvolve(probe, probe, epsilon=-1.0)
