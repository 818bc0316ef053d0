"""Command-line front end: run, reproduce, presets.

Exit codes: 0 success, 2 invalid configuration or unknown figure id,
3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import ConfigError, TrfocusError
from .experiment import (
    FIGURE_IDS,
    PRESETS,
    _GRID_BOUNDS,
    ScenarioConfig,
    config_from_preset,
    reproduce,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trfocus",
        description="Time-reversal spatiotemporal focusing experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded Monte-Carlo campaign")
    # Python 3.11's argparse takes only -1 and -.5 style tokens for negative
    # numbers, so "--users -9e-05" would read -9e-05 as an unknown option.
    # No run flag looks like a number, so every float literal is a value.
    run_p._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )
    # Each dest is the config-file key the flag overrides.
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    run_p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    run_p.add_argument("--bandwidth", dest="bandwidth_hz", type=float, help="bandwidth B in Hz")
    run_p.add_argument("--nt", dest="n_tx", type=int, help="number of Tx antennas")
    run_p.add_argument("--trials", dest="n_trials", type=int, help="number of Monte-Carlo trials")
    run_p.add_argument("--seed", type=int, help="root seed")
    run_p.add_argument("--grid-start", dest="start_m", type=float, help="first grid position (m)")
    run_p.add_argument("--grid-stop", dest="stop_m", type=float, help="last grid position (m)")
    run_p.add_argument("--grid-step", dest="step_m", type=float, help="grid step (m)")
    run_p.add_argument(
        "--target", dest="target_m", type=float, help="focusing target position (m)"
    )
    run_p.add_argument(
        "--users",
        dest="users_m",
        type=float,
        nargs="+",
        help="TRDMA user target positions (m), at least two",
    )
    run_p.add_argument("--csi", dest="csi_mode", choices=("perfect", "sounded"), help="CSI mode")
    run_p.add_argument(
        "--chirp-duration", dest="chirp_duration_s", type=float, help="sounding chirp length (s)"
    )
    run_p.add_argument(
        "--sounding-snr-db",
        type=float,
        help="sounding SNR in dB; omit for the preset default of 30",
    )
    run_p.add_argument(
        "--sounding-noiseless",
        action="store_true",
        help="noise-free sounding (overrides --sounding-snr-db)",
    )
    run_p.add_argument("--outdir", help="output directory (default trfocus_out)")

    rep_p = sub.add_parser("reproduce", help="re-run a published-figure preset")
    rep_p.add_argument("figure", choices=FIGURE_IDS)
    rep_p.add_argument("--outdir", default="trfocus_figs", help="output directory")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument("--trials", type=int, help="override the figure's trial count")

    pre_p = sub.add_parser("presets", help="list the built-in presets")
    pre_p.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    return values


def _config_from_args(args) -> ScenarioConfig:
    """The config file's values, overridden by the flags given."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    del flags["command"]
    path = flags.pop("config", None)
    values = _read_config_file(path) if path else {}
    grid = [flags.pop(key, None) for key in _GRID_BOUNDS]
    if any(v is not None for v in grid):
        if any(v is None for v in grid):
            raise ConfigError("--grid-start/--grid-stop/--grid-step go together")
        values["grid"] = dict(zip(_GRID_BOUNDS, grid))
    if flags.pop("sounding_noiseless"):
        flags["sounding_snr_db"] = None
    values.update(flags)
    preset = values.pop("preset", None)
    if preset is None:
        raise ConfigError("a preset is required (--preset or config 'preset')")
    return config_from_preset(preset, **values)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_args(args)
            summary = run_experiment(config)
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        elif args.command == "reproduce":
            manifest = reproduce(args.figure, args.outdir, seed=args.seed, trials=args.trials)
            json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:  # presets
            rows = {
                name: {
                    "carrier_hz": p.carrier_hz,
                    "bandwidth_hz": p.bandwidth_hz,
                    "n_tx": p.n_tx,
                    "aperture_half_angle_deg": round(
                        math.degrees(p.aperture_half_angle_rad), 3
                    ),
                    "oversample": p.cavity().oversample,
                    "n_paths": p.cavity().n_paths,
                    "grid_m": [p.grid_start_m, p.grid_stop_m, p.grid_step_m],
                    "target_m": p.target_m,
                }
                for name, p in PRESETS.items()
            }
            if args.json:
                json.dump(rows, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
            else:
                for name, row in rows.items():
                    print(f"{name}:")
                    for key, val in row.items():
                        print(f"  {key}: {val}")
        return 0
    except TrfocusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
