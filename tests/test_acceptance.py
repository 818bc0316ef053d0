"""Acceptance suite: every criterion at its stated tolerance and trial count.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); run the
whole module with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from trfocus.channel import (
    SPEED_OF_LIGHT_M_S as C,
    RxGrid,
    build_ensemble,
    spatial_correlation_theory,
)
from trfocus.cli import main as cli_main
from trfocus.experiment import PRESETS, config_from_preset, reproduce, run_trials, sound_cirs
from trfocus.link import focus_field
from trfocus.precoding import equivalence_residual, tr_filters
from trfocus.signalops import inband_nmse_db


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _mean(values):
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)), len(vals)


TEMPORAL_BANDS = {
    100e6: (7e-9, 13e-9),
    200e6: (3.5e-9, 6.5e-9),
    400e6: (1.75e-9, 3.25e-9),
}


def _temporal_means(csi_mode, seed):
    """Ensemble-mean temporal FWHM per bandwidth, sub6ghz cavity, Nt=8.

    The temporal metric depends only on the target row, so a single-point
    grid at the 10 cm target keeps the run fast without changing it.
    """
    means = {}
    for i, bandwidth in enumerate(sorted(TEMPORAL_BANDS)):
        config = config_from_preset(
            "sub6ghz",
            bandwidth_hz=bandwidth,
            grid=RxGrid(np.array([0.10])),
            target_m=0.10,
            n_trials=200,
            seed=seed + i,
            csi_mode=csi_mode,
            sounding_snr_db=30.0,
        )
        outputs = run_trials(config)
        mean, n = _mean(o.temporal_fwhm_s for o in outputs)
        assert n == 200
        means[bandwidth] = mean
    return means


def _spatial_mean(csi_mode, seed):
    """Ensemble-mean spatial FWHM over the full 31-point sub6ghz grid."""
    config = config_from_preset(
        "sub6ghz",
        n_trials=200,
        seed=seed,
        csi_mode=csi_mode,
        sounding_snr_db=30.0,
    )
    outputs = run_trials(config)
    mean, n = _mean(o.spatial_fwhm_m for o in outputs)
    assert n == 200
    return mean


def _peak_power_means(csi_mode, seed):
    """Mean target peak power per antenna count, fixed E_tx."""
    means = {}
    for i, n_tx in enumerate((1, 2, 8)):
        config = config_from_preset(
            "sub6ghz",
            n_tx=n_tx,
            grid=RxGrid(np.array([0.10])),
            target_m=0.10,
            n_trials=200,
            seed=seed + i,
            csi_mode=csi_mode,
            sounding_snr_db=30.0,
        )
        outputs = run_trials(config)
        means[n_tx] = float(
            np.mean([10 ** (o.peak_power_db / 10) for o in outputs])
        )
    return means


def _theory_spatial_fwhm(carrier_hz, aperture):
    lam = C / carrier_hz

    def f(dx):
        return spatial_correlation_theory(dx, carrier_hz, aperture) ** 2 - 0.5

    return 2 * brentq(f, lam / 16, lam / 2)


class TestAcceptance:
    def test_criterion_1_temporal_resolution_vs_bandwidth(self):
        means = _temporal_means("perfect", seed=101)
        detail = ", ".join(
            f"B={b/1e6:.0f}MHz: {means[b]*1e9:.2f}ns in [{lo*1e9:.2f},{hi*1e9:.2f}]"
            for b, (lo, hi) in sorted(TEMPORAL_BANDS.items())
        )
        ok = all(lo <= means[b] <= hi for b, (lo, hi) in TEMPORAL_BANDS.items())
        _report(1, "temporal FWHM vs B", ok, detail)

    def test_criterion_2_spatial_focusing_half_wavelength(self):
        mean = _spatial_mean("perfect", seed=111)
        theory = _theory_spatial_fwhm(2.5e9, math.pi)
        in_band = 0.045 <= mean <= 0.075
        near_theory = 0.75 * theory <= mean <= 1.25 * theory
        _report(
            2,
            "spatial FWHM ~ lambda/2",
            in_band and near_theory,
            f"mean {mean*100:.2f} cm, band [4.5, 7.5] cm, theory {theory*100:.2f} cm +-25%",
        )

    def test_criterion_3_nt_scaling(self):
        means = _peak_power_means("perfect", seed=121)
        ratio = means[8] / means[1]
        ok = 6.5 <= ratio <= 9.5 and means[1] < means[2] < means[8]
        _report(
            3,
            "peak power scales with Nt",
            ok,
            f"ratio(8/1) = {ratio:.2f} in [6.5, 9.5]; "
            f"means {means[1]:.2f} < {means[2]:.2f} < {means[8]:.2f}",
        )

    def test_criterion_4_tr_equals_mrt(self):
        rng = np.random.default_rng(131)
        worst = 0.0
        for _ in range(100):
            n_tx = int(rng.integers(1, 9))
            length = int(rng.integers(2, 128))
            cirs = [
                rng.standard_normal(length) + 1j * rng.standard_normal(length)
                for _ in range(n_tx)
            ]
            bank = tr_filters(cirs, total_energy=float(rng.uniform(0.25, 4.0)))
            worst = max(worst, equivalence_residual(bank, cirs))
        _report(4, "TR == MRT", worst < 1e-10, f"worst residual {worst:.3e} < 1e-10")

    def test_criterion_5_peak_identity(self):
        worst = 0.0
        cases = (
            ("sub6ghz", 8, 20),
            ("mmwave", 1, 15),
            ("subthz", 1, 15),
        )
        for preset_name, n_tx, n_trials in cases:
            preset = PRESETS[preset_name]
            cavity = preset.cavity()
            grid = RxGrid(np.array([preset.target_m]))
            rng = np.random.default_rng(141)
            for _ in range(n_trials):
                ens = build_ensemble(cavity, grid, n_tx, rng)
                bank = tr_filters(ens.cirs_at(0), total_energy=2.0)
                fld = focus_field(bank, ens)
                peak = fld.field[0, fld.peak_index]
                expected = math.sqrt(2.0 * float(np.sum(np.abs(ens.cirs[:, 0]) ** 2)))
                worst = max(worst, abs(peak - expected) / expected)
        _report(5, "peak identity", worst < 1e-9, f"worst relative error {worst:.3e} < 1e-9")

    def test_criterion_6_sounding_fidelity(self):
        # Noiseless sounded CSI recovers the in-band channel to < -40 dB.
        config = config_from_preset("sub6ghz", n_trials=1, seed=151)
        worst = -math.inf
        rng = np.random.default_rng(151)
        for trial in range(3):
            ens = build_ensemble(config.cavity, config.grid, config.n_tx, rng)
            estimates = sound_cirs(ens, config.target_index, 1e-6, None, rng)
            for a, est in enumerate(estimates):
                worst = max(
                    worst,
                    inband_nmse_db(
                        est,
                        ens.cirs[a, config.target_index],
                        config.cavity.bandwidth_hz,
                        config.cavity.sample_rate_hz,
                    ),
                )
        nmse_ok = worst < -40.0

        # Criteria 1-3 at 30 dB sounding SNR with bands widened by 20%.
        widen = 1.2
        t_means = _temporal_means("sounded", seed=161)
        t_ok = all(
            lo / widen <= t_means[b] <= hi * widen
            for b, (lo, hi) in TEMPORAL_BANDS.items()
        )
        s_mean = _spatial_mean("sounded", seed=171)
        theory = _theory_spatial_fwhm(2.5e9, math.pi)
        s_ok = (0.045 / widen <= s_mean <= 0.075 * widen) and (
            theory * 0.75 / widen <= s_mean <= theory * 1.25 * widen
        )
        p_means = _peak_power_means("sounded", seed=181)
        ratio = p_means[8] / p_means[1]
        p_ok = (6.5 / widen <= ratio <= 9.5 * widen) and (
            p_means[1] < p_means[2] < p_means[8]
        )
        _report(
            6,
            "sounded-CSI fidelity",
            nmse_ok and t_ok and s_ok and p_ok,
            f"worst in-band NMSE {worst:.1f} dB < -40; sounded temporal "
            f"{ {int(b/1e6): round(v*1e9, 2) for b, v in t_means.items()} } ns; "
            f"spatial {s_mean*100:.2f} cm; Nt ratio {ratio:.2f}",
        )

    def test_criterion_7_trdma_separation(self):
        config = config_from_preset(
            "mmwave",
            grid=RxGrid(np.array([-0.01, 0.01])),
            target_m=-0.01,
            users_m=(-0.01, 0.01),
            n_trials=200,
            seed=191,
        )
        cavity = config.cavity
        assert cavity.bandwidth_hz * cavity.max_delay_s >= 64
        assert config.n_tx == 1
        lam = cavity.wavelength_m
        assert 0.02 / lam >= 2.0  # ~2.4 wavelengths apart
        outputs = run_trials(config)
        all_sir = np.array([o.sir_db for o in outputs])  # (trials, 2)
        mean_sir = float(all_sir.mean())
        wins = float(np.mean(np.all(all_sir > 0.0, axis=1)))
        ok = mean_sir >= 10.0 and wins >= 0.95
        _report(
            7,
            "TRDMA separation",
            ok,
            f"mean SIR {mean_sir:.1f} dB >= 10; intended>interference in "
            f"{100*wins:.1f}% of trials >= 95%",
        )

    def test_criterion_8_subthz_focusing(self, tmp_path):
        config = config_from_preset("subthz", n_trials=200, seed=201)
        outputs = run_trials(config)
        s_mean, s_n = _mean(o.spatial_fwhm_m for o in outputs)
        t_mean, t_n = _mean(o.temporal_fwhm_s for o in outputs)
        assert s_n == 200 and t_n == 200
        focus_ok = 0.7e-3 <= s_mean <= 1.3e-3 and t_mean < 1e-9

        reproduce("fig4", tmp_path, seed=202, trials=50)
        rows = (tmp_path / "fig4_no_tr_spatial.csv").read_text().splitlines()[1:]
        power = np.array([10 ** (float(r.split(",")[1]) / 10) for r in rows])
        peak_to_mean_db = 10 * math.log10(power.max() / power.mean())
        baseline_ok = peak_to_mean_db < 3.0
        _report(
            8,
            "subTHz focusing",
            focus_ok and baseline_ok,
            f"spatial {s_mean*1e3:.3f} mm in [0.7, 1.3]; temporal "
            f"{t_mean*1e9:.3f} ns < 1; no-TR peak-to-mean {peak_to_mean_db:.2f} dB < 3",
        )

    def test_criterion_9_determinism(self, tmp_path, monkeypatch):
        def run(outdir):
            code = cli_main(
                [
                    "run", "--preset", "subthz", "--trials", "3", "--seed", "77",
                    "--outdir", str(outdir),
                ]
            )
            assert code == 0
            return {
                p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())
            }

        snapshots = []
        for threads in ("1", "1", "4", "4"):
            monkeypatch.setenv("TRFOCUS_THREADS", threads)
            snapshots.append(run(tmp_path / f"run{len(snapshots)}"))
        ok = all(s == snapshots[0] for s in snapshots[1:])
        _report(
            9,
            "byte-identical reruns",
            ok,
            "two runs x TRFOCUS_THREADS in {1, 4} produced identical bytes",
        )
