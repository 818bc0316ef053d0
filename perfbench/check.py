"""Output checks: reference values within a tolerance, and byte identity.

References are recorded from the seed commit (record_reference.py).  They
hold summaries, mean spatial profiles and per-trial metrics, never byte
digests, because a faster CIR kernel may move the low-order bits of every
number.  Two runs of the same code and seed must still agree byte for
byte; that is checked within a run by digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-6
# Only for a reference of exactly zero, e.g. the 0 dB peak of a normalized
# profile; every other value, widths in seconds included, is compared relatively.
ZERO_TOL = 1e-12

_TRIAL_KEYS = ("peak_power_db", "temporal_fwhm_s", "spatial_fwhm_m", "focusing_gain_db")


def _profile(path) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row["power_db"]) for row in csv.DictReader(fh)]


def observe_campaign(outdir) -> dict:
    """The checked numbers of every output set under outdir, keyed by the
    file's path relative to outdir."""
    seen = {}
    for dirpath, _, files in sorted(os.walk(outdir)):
        rel = os.path.relpath(dirpath, outdir)
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            key = name if rel == "." else f"{rel}/{name}"
            if name == "summary.json":
                with open(path, encoding="utf-8") as fh:
                    seen[key] = json.load(fh)
            elif name == "trials.json":
                with open(path, encoding="utf-8") as fh:
                    seen[key] = [[t[k] for k in _TRIAL_KEYS] for t in json.load(fh)]
            elif name == "spatial_mean.csv" or name.endswith("_spatial.csv"):
                seen[key] = _profile(path)
    return seen


def _mean(values) -> list:
    """[mean of the finite values, how many there were]."""
    vals = [v for v in values if v is not None and math.isfinite(v)]
    return [sum(vals) / len(vals) if vals else None, len(vals)]


def observe_replay(values: list[dict]) -> list[dict]:
    """Per-ensemble means and valid counts of the replay's metrics."""
    return [{key: _mean(vals) for key, vals in ens.items()} for ens in values]


def mismatch(observed, reference, where: str = "") -> str | None:
    """First difference beyond tolerance, or None when they agree."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return f"{where}: keys differ"
        for key in sorted(reference):
            found = mismatch(observed[key], reference[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return f"{where}: length differs"
        for i, (o, r) in enumerate(zip(observed, reference)):
            found = mismatch(o, r, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(reference, float) and isinstance(observed, (int, float)):
        abs_tol = ZERO_TOL if reference == 0.0 else 0.0
        if math.isclose(observed, reference, rel_tol=REL_TOL, abs_tol=abs_tol):
            return None
        return f"{where}: {observed!r} != {reference!r}"
    if observed != reference or type(observed) is not type(reference):
        return f"{where}: {observed!r} != {reference!r}"
    return None


def tree_digest(outdir) -> str:
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(outdir)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, outdir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def values_digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
