"""End-to-end tests of the command-line interface and its file outputs."""

import csv
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trfocus
from trfocus.cli import main
from trfocus.experiment import config_from_preset, run_experiment

SUMMARY_KEYS = {
    "fc_hz",
    "b_hz",
    "nt",
    "trials",
    "seed",
    "mean_temporal_fwhm_s",
    "mean_spatial_fwhm_m",
    "mean_focusing_gain_db",
    "mean_sir_db",
}


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def child_env(**overrides):
    """The environment for a child interpreter that imports this trfocus."""
    src = str(Path(trfocus.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunCommand:
    def test_sub6_run_emits_expected_files(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--preset", "sub6ghz", "--bandwidth", "100e6", "--nt", "8",
            "--trials", "2", "--seed", "42", "--outdir", out,
        )
        assert code == 0
        mean_rows = read_csv(out / "spatial_mean.csv")
        assert len(mean_rows) == 31  # one row per grid position
        assert set(mean_rows[0]) == {"position_m", "power_db"}

        trial_rows = read_csv(out / "spatial_trials.csv")
        assert set(trial_rows[0]) == {"trial", "position_m", "power_db", "peak_time_s"}
        assert len(trial_rows) == 2 * 31
        float(trial_rows[0]["power_db"])  # parses as a number

        temporal_rows = read_csv(out / "temporal_trials.csv")
        assert set(temporal_rows[0]) == {"trial", "time_s", "power_db"}

        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert summary["trials"] == 2 and summary["seed"] == 42
        assert summary["nt"] == 8 and summary["b_hz"] == 100e6
        assert summary["mean_temporal_fwhm_s"] == pytest.approx(8.86e-9, rel=0.3)
        assert summary["mean_spatial_fwhm_m"] == pytest.approx(0.053, rel=0.3)

        trials = json.loads((out / "trials.json").read_text())
        assert len(trials) == 2

    def test_subthz_grid_has_21_points(self, tmp_path):
        out = tmp_path / "thz"
        code = run_cli("run", "--preset", "subthz", "--trials", "1",
                       "--seed", "7", "--outdir", out)
        assert code == 0
        rows = read_csv(out / "spatial_mean.csv")
        assert len(rows) == 21
        positions = [float(r["position_m"]) for r in rows]
        assert positions[0] == pytest.approx(-0.003)
        assert positions[-1] == pytest.approx(0.003)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--preset", "subthz", "--trials", "1",
                           "--seed", "7", "--outdir", out) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "preset": "subthz",
            "n_trials": 3,
            "seed": 5,
            "grid": {"start_m": -0.0006, "stop_m": 0.0006, "step_m": 0.0003},
            "target_m": 0.0,
        }))
        out = tmp_path / "out"
        code = run_cli("run", "--config", cfg, "--trials", "2", "--outdir", out)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 2  # flag wins
        assert summary["seed"] == 5  # file value kept
        assert len(read_csv(out / "spatial_mean.csv")) == 5

    def test_users_enable_sir(self, tmp_path):
        out = tmp_path / "mu"
        code = run_cli("run", "--preset", "mmwave", "--trials", "2", "--seed", "3",
                       "--users", "-0.01", "0.01", "--target", "-0.01",
                       "--outdir", out)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_sir_db"] is not None
        trials = json.loads((out / "trials.json").read_text())
        assert all(len(t["sir_db"]) == 2 for t in trials)

    def test_sounded_mode_runs(self, tmp_path):
        out = tmp_path / "snd"
        code = run_cli("run", "--preset", "subthz", "--trials", "1", "--seed", "1",
                       "--csi", "sounded", "--sounding-snr-db", "30",
                       "--outdir", out)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_temporal_fwhm_s"] is not None

    def test_invalid_inputs_exit_2(self, tmp_path, capsys):
        assert run_cli("run", "--preset", "nope", "--outdir", tmp_path / "x") == 2
        assert "error" in capsys.readouterr().err
        assert run_cli("run", "--preset", "sub6ghz", "--trials", "0",
                       "--outdir", tmp_path / "y") == 2
        assert run_cli("run", "--preset", "sub6ghz", "--target", "0.1234",
                       "--trials", "1", "--outdir", tmp_path / "z") == 2

        bad_files = {
            "no_stop": '{"preset": "subthz", "grid": {"start_m": 0.0, "step_m": 0.0003}}',
            "str_trials": '{"preset": "subthz", "n_trials": "3"}',
            "scalar_users": '{"preset": "subthz", "users_m": 0.001}',
            "not_json": "not json",
        }
        bad_args = [("--config", tmp_path / "missing.json")]
        for name, text in bad_files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            bad_args.append(("--config", path))
        bad_args += [
            ("--preset", "subthz", "--trials", "1000000000"),
            ("--preset", "subthz", "--seed", "-1"),
            ("--preset", "subthz", "--users", "0.0"),
        ]
        for args in bad_args:
            assert run_cli("run", *args, "--outdir", tmp_path / "bad") == 2, args
            assert capsys.readouterr().err.startswith("error:"), args
        assert not (tmp_path / "bad").exists()

    def test_oversized_grid_exits_2_without_allocating(self, tmp_path):
        # A 1 nm step gives 3e8 grid points: 2.2 GiB of positions alone and
        # terabytes of taps.  The child runs under a 3 GiB address-space
        # limit, so a missing size check fails the test instead of
        # exhausting the host's memory.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "trfocus", "run", "--preset", "sub6ghz",
             "--grid-start", "0", "--grid-stop", "0.3", "--grid-step", "1e-9",
             "--outdir", str(tmp_path / "bad")],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=limit_memory, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "budget" in proc.stderr
        assert not (tmp_path / "bad").exists()

    def test_non_finite_values_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"preset": "subthz", "tx_energy": NaN}')
        for args in (("--preset", "subthz", "--bandwidth", "nan"), ("--config", cfg)):
            assert run_cli("run", *args, "--outdir", tmp_path / "bad") == 2, args
            assert capsys.readouterr().err.startswith("error:"), args

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_thread_count_exits_2(self, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRFOCUS_THREADS", threads)
        code = run_cli("run", "--preset", "subthz", "--trials", "2",
                       "--outdir", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TRFOCUS_THREADS") and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_blas_thread_count_does_not_change_outputs(self, tmp_path):
        # OpenBLAS reads its thread count at load time, so each count
        # needs its own interpreter.
        trees = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "trfocus", "run", "--preset", "subthz",
                 "--trials", "2", "--outdir", str(out)],
                capture_output=True, text=True,
                env=child_env(OPENBLAS_NUM_THREADS=blas_threads),
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(tree_bytes(out))
        assert trees[0] and trees[0] == trees[1]

    def test_io_failure_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = run_cli("run", "--preset", "subthz", "--trials", "1",
                       "--seed", "1", "--outdir", blocker / "sub")
        assert code == 3


class TestReproduceCommand:
    def test_fig2a_two_peaks(self, tmp_path):
        out = tmp_path / "f2a"
        code = run_cli("reproduce", "fig2a", "--outdir", out, "--seed", "1",
                       "--trials", "3")
        assert code == 0
        rows = read_csv(out / "fig2a_spatial.csv")
        positions = np.array([float(r["position_m"]) for r in rows])
        power = np.array([float(r["power_db"]) for r in rows])
        assert len(rows) == 61
        # Strongest sample within 1 cm of each intended focus.
        for target in (0.075, 0.20):
            window = np.abs(positions - target) <= 0.03
            local_peak = positions[window][np.argmax(power[window])]
            assert abs(local_peak - target) <= 0.01

    def test_fig3_positive_sir_every_trial(self, tmp_path):
        out = tmp_path / "f3"
        code = run_cli("reproduce", "fig3", "--outdir", out, "--seed", "2",
                       "--trials", "4")
        assert code == 0
        trials = json.loads((out / "fig3_run" / "trials.json").read_text())
        assert len(trials) == 4
        for t in trials:
            assert all(v > 0.0 for v in t["sir_db"])

    def test_fig4_baseline_is_flat_and_tr_is_peaked(self, tmp_path):
        out = tmp_path / "f4"
        code = run_cli("reproduce", "fig4", "--outdir", out, "--seed", "3",
                       "--trials", "10")
        assert code == 0
        base = read_csv(out / "fig4_no_tr_spatial.csv")
        power = 10 ** (np.array([float(r["power_db"]) for r in base]) / 10)
        peak_to_mean_db = 10 * np.log10(power.max() / power.mean())
        assert peak_to_mean_db < 3.0

        tr = read_csv(out / "fig4_tr_pos" / "spatial_mean.csv")
        positions = np.array([float(r["position_m"]) for r in tr])
        tr_power = np.array([float(r["power_db"]) for r in tr])
        assert abs(positions[np.argmax(tr_power)] - 0.0009) <= 0.0003

    def test_fig4_shared_ensemble_matches_separate_runs(self, tmp_path):
        # fig4 measures both targets on one ensemble per trial; each output
        # set must equal a campaign of its own config.
        out = tmp_path / "f4"
        assert run_cli("reproduce", "fig4", "--outdir", out, "--seed", "4",
                       "--trials", "3") == 0
        for label, target in (("neg", -0.0009), ("pos", 0.0009)):
            alone = tmp_path / f"alone_{label}"
            run_experiment(config_from_preset(
                "subthz", target_m=target, n_trials=3, seed=4, outdir=str(alone)))
            shared = tree_bytes(out / f"fig4_tr_{label}")
            assert shared and shared == tree_bytes(alone), label

    @pytest.mark.parametrize("figure", ["fig2a", "fig4"])
    def test_thread_count_does_not_change_outputs(self, figure, tmp_path, monkeypatch):
        out = tmp_path / figure
        trees = []
        for threads in ("1", "4"):
            monkeypatch.setenv("TRFOCUS_THREADS", threads)
            assert run_cli("reproduce", figure, "--outdir", out, "--trials", "3") == 0
            trees.append(tree_bytes(out))
            shutil.rmtree(out)
        assert trees[0] == trees[1]

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            run_cli("reproduce", "fig9")
        assert err.value.code == 2


class TestPresetsCommand:
    def test_lists_three_presets(self, capsys):
        assert run_cli("presets", "--json") == 0
        listed = json.loads(capsys.readouterr().out)
        assert set(listed) == {"sub6ghz", "mmwave", "subthz"}
        assert listed["mmwave"]["bandwidth_hz"] == 2e9

    def test_import_leaves_scipy_signal_and_stats_unloaded(self):
        code = (
            "import sys, trfocus.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "trfocus", "presets"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "sub6ghz" in proc.stdout
