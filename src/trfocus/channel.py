"""Stochastic rich-scattering channel over a linear receiver grid.

The reverberant environment is modeled as a superposition of plane waves:
each realization draws P paths with delay tau_p uniform on
[0, max_delay_s], arrival direction d_p uniform on a spherical cap of
half-angle ``aperture_half_angle_rad`` about the boresight (perpendicular
to the grid axis), and circularly-symmetric Gaussian amplitude whose
variance follows exp(-tau_p / decay_time_s), jointly normalized so the
expected CIR energy per antenna is 1.

A receiver displaced by x along the grid axis u sees each path at

    tau_p(x) = tau_p + x * (u . d_p) / c

and the band-limited baseband impulse response sampled at
f_s = oversample * B is

    h[n] = sum_p a_p * exp(-j 2 pi f_c tau_p(x)) * sinc(B (n/f_s - tau_p(x)))

with sinc(u) = sin(pi u) / (pi u).  The exact delay (not just the carrier
phase) is applied per position.  The resulting field has the diffuse-field
spatial correlation returned by :func:`spatial_correlation_theory`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.fft

from .errors import DimensionMismatchError, ParameterError
from .signalops import Cir

SPEED_OF_LIGHT_M_S = 299792458.0

# Extra taps appended past max_delay_s so truncated sinc tails keep the
# per-antenna energy normalization within a percent.
_TAIL_GUARD_OVERSAMPLES = 8

# Largest ensemble a run may hold: n_tx * n_rx * (L + nfft) complex values,
# 16 bytes each, for the CIRs and their cached spectrum.
ENSEMBLE_BUDGET_BYTES = 1 << 30


def _unit3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(3)
    norm = float(np.linalg.norm(arr))
    if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise ParameterError("direction vectors must be unit-norm")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PathSet:
    """A channel realization: P paths stored as parallel arrays."""

    delays_s: np.ndarray
    directions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays_s, dtype=np.float64)
        dirs = np.asarray(self.directions, dtype=np.float64)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if delays.ndim != 1 or delays.size == 0:
            raise ParameterError("a path set needs at least one path")
        if dirs.shape != (delays.size, 3):
            raise DimensionMismatchError("directions must have shape (P, 3)")
        if amps.shape != delays.shape:
            raise DimensionMismatchError("amplitudes must have shape (P,)")
        if np.any(delays < 0):
            raise ParameterError("path delays must be nonnegative")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ParameterError("path directions must be unit-norm")
        for name, val in (("delays_s", delays), ("directions", dirs), ("amplitudes", amps)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    def __len__(self) -> int:
        return self.delays_s.size


@dataclass(frozen=True)
class CavityParams:
    """Parameters of the synthetic rich-scattering environment."""

    carrier_hz: float
    bandwidth_hz: float
    decay_time_s: float
    max_delay_s: float
    aperture_half_angle_rad: float = math.pi
    n_paths: int = 2000
    oversample: int = 4

    def __post_init__(self):
        for name in ("carrier_hz", "bandwidth_hz", "decay_time_s", "max_delay_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be positive and finite")
        if not 0 < self.aperture_half_angle_rad <= math.pi:
            raise ParameterError("aperture_half_angle_rad must lie in (0, pi]")
        if not self.n_paths >= 1:
            raise ParameterError("n_paths must be a positive integer")
        if not (self.oversample >= 1 and float(self.oversample).is_integer()):
            raise ParameterError("oversample must be an integer >= 1")

    @property
    def sample_rate_hz(self) -> float:
        return self.oversample * self.bandwidth_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @property
    def cir_length(self) -> int:
        """Tap count: covers max_delay_s plus a sinc-tail guard."""
        span = int(math.ceil(self.max_delay_s * self.sample_rate_hz))
        return span + _TAIL_GUARD_OVERSAMPLES * self.oversample


@dataclass(frozen=True)
class RxGrid:
    """Receiver positions along a motorized linear axis."""

    positions_m: np.ndarray
    axis: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self):
        pos = np.asarray(self.positions_m, dtype=np.float64)
        if pos.ndim != 1 or pos.size == 0:
            raise ParameterError("grid needs at least one position")
        if pos.size > 1 and not np.all(np.diff(pos) > 0):
            raise ParameterError("grid positions must be strictly increasing")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions_m", pos)
        object.__setattr__(self, "axis", _unit3(self.axis))

    def __len__(self) -> int:
        return self.positions_m.size

    def boresight(self) -> np.ndarray:
        """A deterministic unit vector perpendicular to the grid axis."""
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(self.axis)))] = 1.0
        b = seed - np.dot(seed, self.axis) * self.axis
        return b / np.linalg.norm(b)


def _spectrum_length(cir_length: int) -> int:
    """FFT length of an ensemble's spectrum: room for the 2L-1 samples of a
    CIR convolved with an L-tap filter, rounded up to a fast size."""
    return scipy.fft.next_fast_len(2 * cir_length - 1)


def check_ensemble_size(n_tx: int, n_rx: int, cir_length: int) -> None:
    """Raise ParameterError when the CIRs and the spectrum of an ensemble
    would exceed ENSEMBLE_BUDGET_BYTES."""
    n_bytes = 16 * n_tx * n_rx * (cir_length + _spectrum_length(cir_length))
    if n_bytes > ENSEMBLE_BUDGET_BYTES:
        raise ParameterError(
            f"an ensemble of {n_tx} x {n_rx} CIRs of {cir_length} taps needs "
            f"{n_bytes / 2**30:.1f} GiB, over the {ENSEMBLE_BUDGET_BYTES / 2**30:g} GiB budget"
        )


@dataclass(frozen=True)
class ChannelEnsemble:
    """CIRs indexed by (tx antenna, rx grid position) for one realization.

    ``spectrum`` is the read-only fft(cirs, next_fast_len(2L-1), axis=2),
    computed at construction and shared by every bank propagated through
    this ensemble.
    """

    cirs: np.ndarray  # complex, shape (n_tx, n_rx, cir_length)
    params: CavityParams
    grid: RxGrid
    n_tx: int
    seed: int | None = None
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.cirs, dtype=np.complex128)
        if arr.shape[:2] != (self.n_tx, len(self.grid)):
            raise DimensionMismatchError("cirs must have shape (n_tx, n_rx, L)")
        if arr.shape[2] / self.params.sample_rate_hz < self.params.max_delay_s:
            raise ParameterError("CIR span shorter than max_delay_s")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "cirs", arr)
        spec = np.fft.fft(arr, _spectrum_length(arr.shape[2]), axis=2)
        spec.setflags(write=False)
        object.__setattr__(self, "spectrum", spec)

    @property
    def cir_length(self) -> int:
        return self.cirs.shape[2]

    @property
    def sample_rate_hz(self) -> float:
        return self.params.sample_rate_hz

    def cir(self, tx: int, rx: int) -> Cir:
        return Cir(self.cirs[tx, rx], self.sample_rate_hz, self.params.carrier_hz)

    def cirs_at(self, rx: int) -> list[Cir]:
        """All per-antenna CIRs for one grid position."""
        return [self.cir(a, rx) for a in range(self.n_tx)]


def draw_paths(
    params: CavityParams,
    rng,
    boresight=None,
) -> PathSet:
    """Draw one path-set realization.

    Delays are uniform on [0, max_delay_s]; directions uniform on the
    spherical cap of half-angle aperture_half_angle_rad about the
    boresight; amplitudes CN(0, sigma_p^2) with sigma_p^2 following
    exp(-tau_p / decay_time_s), normalized so E||h||^2 = 1 per antenna.
    """
    gen = np.random.default_rng(rng)
    n = params.n_paths
    delays = gen.uniform(0.0, params.max_delay_s, n)

    cos_cap = math.cos(params.aperture_half_angle_rad)
    cos_theta = gen.uniform(cos_cap, 1.0, n)
    phi = gen.uniform(0.0, 2.0 * math.pi, n)
    sin_theta = np.sqrt(np.maximum(1.0 - cos_theta**2, 0.0))

    b = _unit3(boresight) if boresight is not None else np.array([0.0, 0.0, 1.0])
    e1_seed = np.zeros(3)
    e1_seed[int(np.argmin(np.abs(b)))] = 1.0
    e1 = np.cross(b, e1_seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(b, e1)
    directions = (
        np.outer(sin_theta * np.cos(phi), e1)
        + np.outer(sin_theta * np.sin(phi), e2)
        + np.outer(cos_theta, b)
    )

    gauss = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / math.sqrt(2.0)
    variances = np.exp(-delays / params.decay_time_s)
    variances /= params.oversample * variances.sum()
    amplitudes = gauss * np.sqrt(variances)
    return PathSet(delays, directions, amplitudes)


def _sinc_mix(coeff: np.ndarray, centers: np.ndarray, length: int, oversample: int) -> np.ndarray:
    """out[n] = sum_p coeff[p] * sinc((n - centers[p]) / oversample).

    Exact band-limited interpolation evaluated per polyphase branch
    n = oversample*q + r using
    sinc(q - mu) = -(-1)^q (-1)^k sin(pi*frac) / (pi*(q - mu)),
    mu = k + frac, so each branch is one Cauchy sum
    row[q] = sum_p w_p / (q - mu_p) over a single (P, Q) buffer:

    - q - mu is written into the buffer as the rank-2 product
      [1, -mu] @ [q; 1]; every product is by 1, so the one rounded sum
      equals q - mu bit for bit, and BLAS writes it faster than a
      broadcast subtraction;
    - the buffer is inverted in place and one real GEMM of the stacked
      [w.real; w.imag] weights gives the real and imaginary rows;
    - a path with |frac| < 1e-8 whose tap k lies in the branch gets an
      infinite denominator at k (reciprocal 0), and its exact
      coeff * sinc(k - mu) is added to tap k instead.

    The per-path factors of all branches are computed at once.  The GEMM
    sums in OpenBLAS's order, so the taps agree with a per-path sum to
    rounding, not bit for bit; that order does not depend on the BLAS
    thread count.
    """
    out = np.empty(length, dtype=np.complex128)
    n_paths = centers.size
    n_rows = -(-length // oversample)  # taps of branch 0, the longest
    mu = (centers - np.arange(oversample)[:, None]) / oversample  # (branch, path)
    k = np.rint(mu)
    frac = mu - k
    sign = 1.0 - 2.0 * (k.astype(np.int64) & 1)
    w = coeff * (sign * np.sin(np.pi * frac))
    weights = np.stack((w.real, w.imag), axis=1)  # (branch, 2, path)
    on_tap = np.abs(frac) < 1e-8
    lhs = np.ones((n_paths, 2))
    rhs = np.ones((2, n_rows))
    rhs[0] = np.arange(n_rows)
    alternating = (2.0 * (np.arange(n_rows) & 1) - 1.0) / np.pi  # -(-1)^q / pi
    buf = np.empty(n_paths * n_rows)
    for r in range(oversample):
        n_q = (length - r + oversample - 1) // oversample
        recip = buf[: n_paths * n_q].reshape(n_paths, n_q)
        np.negative(mu[r], out=lhs[:, 1])
        np.matmul(lhs, rhs[:, :n_q], out=recip)  # q - mu
        near = np.flatnonzero(on_tap[r] & (k[r] >= 0) & (k[r] < n_q))
        taps = k[r, near].astype(np.int64)
        recip[near, taps] = np.inf
        np.reciprocal(recip, out=recip)
        re_im = weights[r] @ recip
        row = re_im[0] + 1j * re_im[1]
        row *= alternating[:n_q]
        if near.size:
            np.add.at(row, taps, coeff[near] * np.sinc(taps - mu[r, near]))
        out[r::oversample] = row
    return out


def _synthesize_taps(
    paths: PathSet,
    position_m: float,
    params: CavityParams,
    axis: np.ndarray,
    length: int,
) -> np.ndarray:
    fs = params.sample_rate_hz
    tau = paths.delays_s + (position_m / SPEED_OF_LIGHT_M_S) * (paths.directions @ axis)
    coeff = paths.amplitudes * np.exp(-2j * np.pi * params.carrier_hz * tau)
    return _sinc_mix(coeff, tau * fs, length, params.oversample)


def synthesize_cir(
    paths: PathSet,
    position_m: float,
    params: CavityParams,
    axis=None,
    length: int | None = None,
) -> Cir:
    """Band-limited CIR seen at a given position on the grid axis.

    Applies the exact per-path delay shift x*(axis . d_p)/c and carrier
    phase, then interpolates onto the f_s = oversample*B tap grid with the
    sinc kernel.  Pure: identical inputs give identical taps.
    """
    axis_v = _unit3(axis) if axis is not None else np.array([1.0, 0.0, 0.0])
    n_taps = length if length is not None else params.cir_length
    if n_taps < 1:
        raise ParameterError("CIR length must be positive")
    taps = _synthesize_taps(paths, float(position_m), params, axis_v, n_taps)
    return Cir(taps, params.sample_rate_hz, params.carrier_hz)


def build_ensemble(
    params: CavityParams,
    grid: RxGrid,
    n_tx: int,
    rng,
) -> ChannelEnsemble:
    """Synthesize CIRs for every (antenna, position) pair.

    One independent path set is drawn per Tx antenna, sequentially from
    the given seed, so a fixed seed reproduces the ensemble bit-exactly.
    """
    if n_tx < 1:
        raise ParameterError("n_tx must be a positive integer")
    length = params.cir_length
    check_ensemble_size(n_tx, len(grid), length)
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    gen = np.random.default_rng(rng)
    boresight = grid.boresight()
    cirs = np.empty((n_tx, len(grid), length), dtype=np.complex128)
    for a in range(n_tx):
        paths = draw_paths(params, gen, boresight)
        for r, x in enumerate(grid.positions_m):
            cirs[a, r] = _synthesize_taps(paths, float(x), params, grid.axis, length)
    return ChannelEnsemble(cirs=cirs, params=params, grid=grid, n_tx=n_tx, seed=seed)


def spatial_correlation_theory(
    delta_x_m: float,
    carrier_hz: float,
    aperture_half_angle_rad: float,
) -> float:
    """Field correlation of the diffuse model at lag delta_x_m.

    Full sphere (aperture = pi): sin(k dx)/(k dx) with k = 2 pi / lambda.
    Cone of half-angle theta_m < pi/2: 2 J1(k dx sin(theta_m)) / (k dx
    sin(theta_m)).  Wide caps in [pi/2, pi) fall back to numerical
    quadrature of the exact cap average of J0(k dx sin(theta)).
    """
    if carrier_hz <= 0:
        raise ParameterError("carrier_hz must be positive")
    if not 0 < aperture_half_angle_rad <= math.pi:
        raise ParameterError("aperture_half_angle_rad must lie in (0, pi]")
    k = 2.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S
    z = k * abs(float(delta_x_m))
    if z == 0.0:
        return 1.0
    theta_m = aperture_half_angle_rad
    if theta_m >= math.pi - 1e-12:
        return math.sin(z) / z
    if theta_m < math.pi / 2:
        from scipy.special import j1 as _bessel_j1

        v = z * math.sin(theta_m)
        return float(2.0 * _bessel_j1(v) / v)
    # Exact cap average, Gauss-Legendre on theta in [0, theta_m].
    from scipy.special import j0 as _bessel_j0

    nodes, weights = np.polynomial.legendre.leggauss(256)
    theta = 0.5 * theta_m * (nodes + 1.0)
    integrand = _bessel_j0(z * np.sin(theta)) * np.sin(theta)
    integral = 0.5 * theta_m * float(np.dot(weights, integrand))
    return integral / (1.0 - math.cos(theta_m))


# ---------------------------------------------------------------------------
# Ensemble file export

_FORMAT_NAME = "trfocus-ensemble"


def save_ensemble(ensemble: ChannelEnsemble, path, mode: str = "text") -> None:
    """Write an ensemble to disk: one JSON header line, then the taps.

    mode="text": one line per (antenna, position) CIR with repr-formatted
    interleaved re/im values; reloads bit-exactly.  mode="binary": raw
    little-endian complex128 in C order after the header line.
    """
    if mode not in ("text", "binary"):
        raise ParameterError("mode must be 'text' or 'binary'")
    header = {
        "format": _FORMAT_NAME,
        "version": 1,
        "mode": mode,
        "n_tx": ensemble.n_tx,
        "n_rx": len(ensemble.grid),
        "cir_length": ensemble.cir_length,
        "seed": ensemble.seed,
        "params": asdict(ensemble.params),
        "grid": {
            "positions_m": [float(x) for x in ensemble.grid.positions_m],
            "axis": [float(x) for x in ensemble.grid.axis],
        },
    }
    header_line = json.dumps(header, sort_keys=True)
    if mode == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header_line + "\n")
            for row in ensemble.cirs.reshape(-1, ensemble.cir_length):
                fh.write(" ".join(map(repr, row.view(np.float64).tolist())) + "\n")
    else:
        with open(path, "wb") as fh:
            fh.write(header_line.encode("utf-8") + b"\n")
            fh.write(np.ascontiguousarray(ensemble.cirs, dtype="<c16").tobytes())


def load_ensemble(path) -> ChannelEnsemble:
    """Inverse of :func:`save_ensemble`.

    A malformed header or a body that does not hold n_tx * n_rx *
    cir_length taps raises ParameterError.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise ParameterError(f"{path}: header is not JSON") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise ParameterError(f"{path} is not a {_FORMAT_NAME} file")
    try:
        params = CavityParams(**header["params"])
        grid = RxGrid(
            positions_m=np.array(header["grid"]["positions_m"], dtype=np.float64),
            axis=np.array(header["grid"]["axis"], dtype=np.float64),
        )
        shape = (int(header["n_tx"]), int(header["n_rx"]), int(header["cir_length"]))
        mode, seed = header["mode"], header["seed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: malformed header ({exc!r})") from exc
    if mode not in ("text", "binary"):
        raise ParameterError(f"{path}: unknown mode {mode!r}")
    check_ensemble_size(*shape)
    try:
        if mode == "text":
            # One CIR per line; ragged lines make np.array raise ValueError.
            values = np.array(
                [
                    np.fromiter(map(float, line.split()), np.float64)
                    for line in body.decode("utf-8").splitlines()
                ]
            )
            if values.shape != (shape[0] * shape[1], 2 * shape[2]):
                raise ValueError(f"text body of shape {values.shape}")
            cirs = values.view(np.complex128).reshape(shape)
        else:
            cirs = np.frombuffer(body, dtype="<c16").reshape(shape).astype(np.complex128)
    except ValueError as exc:
        raise ParameterError(
            f"{path}: body does not hold {shape[0]}x{shape[1]}x{shape[2]} taps"
        ) from exc
    return ChannelEnsemble(cirs=cirs, params=params, grid=grid, n_tx=shape[0], seed=seed)
