"""Every exported function and record constructor either returns or
raises a TrfocusError, whatever scalar or array it is given.

Each scalar or array argument of an otherwise valid call is replaced in
turn by each value of HOSTILE.  Record arguments (a CavityParams, RxGrid,
ChannelEnsemble, ScenarioConfig, SpaceTimeField or TrdmaResult) stay
valid; a file path or outdir takes only the values that are not strings,
because a string is a real file name whose errors are the OSError of the
file system.  A record of 10**9 paths is passed to the two functions that
draw them.  reproduce and run_experiment run one-trial campaigns, each
call of reproduce into a directory of its own.

Run as a script, this module makes every call and prints one line per
call that raised anything else.  The test runs it in a fresh interpreter
with every warning an error, under a 3 GiB address-space limit, so a size
that no check bounds fails with a MemoryError instead of exhausting the
host's memory; a valid call may use the 1 GiB ensemble budget.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import trfocus
from trfocus import (
    CavityParams,
    ChannelEnsemble,
    PathSet,
    RxGrid,
    ScenarioConfig,
    SpaceTimeField,
    SpatialProfile,
    TrdmaResult,
    TrfocusError,
    build_ensemble,
    config_from_preset,
    draw_paths,
    equivalence_residual,
    focus_field,
    focusing_gain,
    gen_chirp,
    inband_nmse_db,
    isi_ratio,
    load_ensemble,
    mrt_weights,
    reproduce,
    run_experiment,
    save_ensemble,
    sir,
    sound_cirs,
    spatial_correlation_theory,
    spatial_profile,
    temporal_fwhm,
    tr_filters,
    trdma_link,
)

HOSTILE = [
    None, True, "1", "abc", math.nan, math.inf, -math.inf, 0, -1,
    10**9, 10**18, 10**400, 10**5000, -10**5000,
    np.int64(-1), np.float64(1e300), np.bool_(True), np.complex128(1j),
    np.array([]), np.ones((2, 3, 4)),
]

# Arguments whose valid value is kept in every call.
RECORDS = (CavityParams, RxGrid, ChannelEnsemble, ScenarioConfig, SpaceTimeField, TrdmaResult)


def valid_calls(tmp: Path) -> list:
    """(function, valid keyword arguments) for every exported function and
    record constructor, on a 2-antenna, 3-point ensemble of 32-tap CIRs;
    the two campaigns run one subthz trial and one fig3 trial."""
    cavity = dict(carrier_hz=2.5e9, bandwidth_hz=1e8, decay_time_s=8e-8, max_delay_s=8e-8,
                  aperture_half_angle_rad=1.0, n_paths=20, oversample=2)
    params = CavityParams(**cavity)
    grid = RxGrid(positions_m=[0.0, 0.01, 0.02])
    ens = build_ensemble(params, grid, 2, 0)
    banks = [tr_filters(ens.cirs_at(0)), tr_filters(ens.cirs_at(2))]
    field = focus_field(banks[0], ens)
    link = trdma_link(banks, ens, [0, 2], 4)
    paths = draw_paths(params, 0)
    path = tmp / "ensemble.txt"
    save_ensemble(ens, path)
    taps = ens.cirs_at(1)
    return [
        (CavityParams, cavity),
        (RxGrid, dict(positions_m=[0.0, 0.01, 0.02])),
        (PathSet, paths._asdict()),
        (ChannelEnsemble, dict(cirs=ens.cirs, params=params, grid=grid)),
        (build_ensemble, dict(params=params, grid=grid, n_tx=2, rng=0)),
        (draw_paths, dict(params=params, rng=0)),
        (save_ensemble, dict(ensemble=ens, path=tmp / "saved.txt")),
        (load_ensemble, dict(path=path)),
        (spatial_correlation_theory,
         dict(delta_x_m=0.01, carrier_hz=2.5e9, aperture_half_angle_rad=0.5)),
        (ScenarioConfig, dict(cavity=params, grid=grid, n_tx=2, target_m=0.01, n_trials=1,
                              seed=0, users_m=(0.0, 0.02), csi_mode="sounded",
                              chirp_duration_s=1e-7, sounding_snr_db=30.0, tx_energy=1.0,
                              symbol_period_samples=4, outdir="out")),
        (run_experiment, dict(config=config_from_preset("subthz", n_trials=1,
                                                        outdir=str(tmp / "run")))),
        (reproduce, dict(figure_id="fig3", outdir=tmp / "reproduce", seed=0, trials=1)),
        (config_from_preset, dict(preset_name="subthz", bandwidth_hz=3e9, n_tx=1,
                                  target_m=0.0, n_trials=1, seed=0, users_m=(-0.0003, 0.0003),
                                  chirp_duration_s=1e-6, sounding_snr_db=30.0,
                                  tx_energy=1.0, symbol_period_samples=4)),
        (sound_cirs, dict(ensemble=ens, rx_index=1, chirp_duration_s=1e-7,
                          sounding_snr_db=30.0, rng=0)),
        (focus_field, dict(bank=banks[0], ensemble=ens)),
        (trdma_link, dict(banks=banks, ensemble=ens, targets=[0, 2], symbol_period_samples=4)),
        (SpaceTimeField, field._asdict()),
        (TrdmaResult, link._asdict()),
        (SpatialProfile, dict(power_db=np.zeros(3), fwhm_m=0.01)),
        (focusing_gain, dict(field=field, target_index=1)),
        (isi_ratio, dict(trdma=link)),
        (sir, dict(trdma=link)),
        (spatial_profile, dict(field=field, peak_time_index=field.peak_index)),
        (temporal_fwhm, dict(y=field.field[0], sample_rate_hz=2e8)),
        (equivalence_residual, dict(bank=banks[0], cirs=ens.cirs_at(0))),
        (mrt_weights, dict(cirs=taps, n_bins=64, total_energy=1.0)),
        (tr_filters, dict(cirs=taps, total_energy=1.0)),
        (gen_chirp, dict(bandwidth_hz=1e8, duration_s=1e-7, sample_rate_hz=2e8)),
        (inband_nmse_db, dict(estimate=taps[0], reference=taps[1], bandwidth_hz=1e8,
                              sample_rate_hz=2e8)),
    ]


def hostile_calls(tmp: Path):
    """(label, function, keyword arguments): each valid call, then each of
    its scalar and array arguments replaced in turn by each hostile value."""
    for fn, kwargs in valid_calls(tmp):
        yield f"{fn.__name__}(valid)", fn, kwargs
        if fn in (build_ensemble, draw_paths):
            huge = dataclasses.replace(kwargs["params"], n_paths=10**9)
            yield f"{fn.__name__}(params.n_paths=10**9)", fn, {**kwargs, "params": huge}
        for name, value in kwargs.items():
            if isinstance(value, RECORDS):
                continue
            for bad in HOSTILE:
                if name in ("path", "outdir") and isinstance(bad, str):
                    continue
                label = f"{fn.__name__}({name}={show(bad)})"
                yield label, fn, {**kwargs, name: bad}


def show(value) -> str:
    """value's repr on one line, cut to 40 characters; Python refuses the
    repr of an int of more than 4 300 digits, so such an int shows as
    +-10**k."""
    if isinstance(value, int) and abs(value) > 10**4000:
        return f"{'-' if value < 0 else ''}10**{round(math.log10(abs(value)))}"
    return f"{' '.join(repr(value).split()):.40}"


def failures(tmp: Path) -> list[str]:
    """One line for each call that raised an exception other than a
    TrfocusError, and for each export with no valid call above."""
    exported = {
        name for name, obj in vars(trfocus).items()
        if callable(obj) and not name.startswith("_")
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    called = {fn.__name__ for fn, _ in valid_calls(tmp)}
    out = [f"{name}: no call" for name in sorted(exported - called)]
    for k, (label, fn, kwargs) in enumerate(hostile_calls(tmp)):
        if fn is reproduce and isinstance(kwargs["outdir"], Path):
            kwargs = {**kwargs, "outdir": tmp / f"reproduce_{k}"}
        try:
            fn(**kwargs)
        except TrfocusError:
            pass
        except Exception as exc:  # the finding this test exists to report
            out.append(f"{label}: {type(exc).__name__}: {str(exc)[:120]}")
    return out


def test_every_export_returns_or_raises_a_trfocus_error(tmp_path):
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(trfocus.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", __file__, str(tmp_path)], capture_output=True, text=True,
        env=env, stdin=subprocess.DEVNULL,
        preexec_fn=limit_memory, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", proc.stdout


if __name__ == "__main__":
    for line in failures(Path(sys.argv[1])):
        print(line)
