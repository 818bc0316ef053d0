"""Stochastic rich-scattering channel over a linear receiver grid.

The reverberant environment is modeled as a superposition of plane waves:
each realization draws P paths with delay tau_p uniform on
[0, max_delay_s], arrival direction uniform on a spherical cap of
half-angle ``aperture_half_angle_rad`` centred on a direction
perpendicular to the grid axis, and circularly-symmetric Gaussian
amplitude a_p whose variance follows exp(-tau_p / decay_time_s), jointly
normalized so the expected CIR energy per antenna is 1.  Only the
direction's cosine u_p to the grid axis enters the field, so a path is
kept as (tau_p, u_p, a_p).

A receiver displaced by x along the grid axis sees each path at

    tau_p(x) = tau_p + x * u_p / c

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
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidTargetError, ParameterError, TrfocusError

SPEED_OF_LIGHT_M_S = 299792458.0

# Extra taps appended past max_delay_s so truncated sinc tails keep the
# per-antenna energy normalization within a percent.
_TAIL_GUARD_OVERSAMPLES = 8

# Largest ensemble a run may hold: n_tx * n_rx * (L + nfft) complex values,
# 16 bytes each, for the CIRs and their cached spectrum.
ENSEMBLE_BUDGET_BYTES = 1 << 30

# Bytes a path takes in a path draw: 95 at the tracemalloc peak of a
# draw_paths of 20 000 paths, rounded up.
_PATH_BYTES = 96


def _check_int(name: str, value, low: int = 0, end: int | None = None,
               error: type[TrfocusError] = ParameterError) -> None:
    """Raise error unless value is an int or numpy integer in [low, end), not
    a bool: numpy would read a negative index from the end and a bool as 0
    or 1.  It is never converted."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or end is not None and value >= end):
        top = "inf" if end is None else end
        raise error(f"{name} must be an integer in [{low}, {top}): {_sig3(value)}")


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
                ends: str = "()", error: type[TrfocusError] = ParameterError) -> None:
    """Raise error unless value is a Python or numpy int or float, not a bool,
    that float() converts into the interval from low to high, each end open or
    closed as ends ("()", "[)", "(]" or "[]") says.  It is never converted."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past float range
        x = math.nan
    if not (low < x < high or x == low and ends[0] == "[" or x == high and ends[1] == "]"):
        raise error(f"{name} must be a real in {ends[0]}{low:g}, {high:g}{ends[1]}: {_sig3(value)}")


def _finite_array(values, name: str, kinds: str = "iufc") -> np.ndarray:
    """np.asarray(values); ParameterError unless its dtype kind is in kinds
    (ints, floats or complex numbers by default; never bools, strings or
    objects) and every value is finite, DimensionMismatchError if ragged."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise DimensionMismatchError(f"{name} must not be a ragged nesting") from exc
    if arr.dtype.kind not in kinds or not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite numbers of a kind in {kinds!r}: {arr.dtype}")
    return arr


def _generator(rng) -> np.random.Generator:
    """np.random.default_rng(rng), for None, an integer >= 0, a
    SeedSequence or a Generator; a seed it refuses raises ParameterError."""
    try:
        return np.random.default_rng(rng)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"rng {_sig3(rng)} is not a seed: {exc}") from exc


def _check_path(name: str, path, error: type[TrfocusError] = ParameterError) -> None:
    """Raise error unless path is a str or os.PathLike: open() would take an
    int as a file descriptor, and close it."""
    if not isinstance(path, (str, os.PathLike)):
        raise error(f"{name} must be a str or os.PathLike: {_sig3(path)}")


class PathSet(NamedTuple):
    """A channel realization of P paths, as draw_paths returns it, each of
    shape (P,): delays in [0, max_delay_s], the cosines in [-1, 1] of the
    arrival directions to the grid axis, and complex amplitudes."""

    delays_s: np.ndarray
    axial_cos: np.ndarray
    amplitudes: np.ndarray


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
            _check_real(name, getattr(self, name), 0.0)
        _check_real("aperture_half_angle_rad", self.aperture_half_angle_rad, 0.0, math.pi, "(]")
        for name in ("n_paths", "oversample"):  # numpy sizes are int64
            _check_int(name, getattr(self, name), low=1, end=2**63)
        # Synthesis takes each delay in samples and its carrier phase.  As
        # Python floats the products overflow to inf without a warning.
        b, fc = float(self.bandwidth_hz), float(self.carrier_hz)
        rate = max(self.oversample * b, 2.0 * math.pi * fc)
        _check_real("max_delay_s times the sample rate or 2 pi f_c", float(self.max_delay_s) * rate)
        # The band f_c +- B/2 lies above 0 Hz.
        _check_real("bandwidth_hz (below 2 * carrier_hz)", self.bandwidth_hz, 0.0, 2.0 * fc)

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

    def __post_init__(self):
        pos = _finite_array(self.positions_m, "positions_m", "iuf").astype(np.float64)  # a copy
        if pos.ndim != 1 or pos.size == 0:
            raise ParameterError("grid needs at least one position")
        if pos.size > 1 and not np.all(np.diff(pos) > 0):
            raise ParameterError("grid positions must be strictly increasing")
        pos.setflags(write=False)
        object.__setattr__(self, "positions_m", pos)

    def __len__(self) -> int:
        return self.positions_m.size


def _spectrum_length(cir_length: int) -> int:
    """FFT length of an ensemble's spectrum: the smallest 2*3*5*7*11-smooth
    n >= 2L-1, room for a CIR convolved with an L-tap filter."""
    target = 2 * cir_length - 1
    best = 1 << (target - 1).bit_length()  # a power of two >= target
    odd = [1]  # every 3*5*7*11-smooth m < best
    for p in (3, 5, 7, 11):
        for m in odd[:]:
            while m * p < best:
                m *= p
                odd.append(m)
    for m in odd:
        best = min(best, m << (-(-target // m) - 1).bit_length())
    return best


def _sig3(n, rounding: str = "ROUND_HALF_EVEN") -> str:
    """An int n to three significant digits under a decimal rounding mode,
    and any other n as its repr.  Decimal formats an int past float range
    too, such as 10**400 antennas or the size of their grid."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        return repr(n)
    from decimal import Context  # 1-3 ms and 0.3 MiB of import, paid on error paths only

    return f"{Context(prec=3, rounding=rounding).create_decimal(int(n)):.3g}"


def check_budget(n_bytes: int, what: Callable[[], str]) -> None:
    """Raise ParameterError when n_bytes exceeds ENSEMBLE_BUDGET_BYTES.

    what() names the allocation and ends in its verb, as in "sounding 8
    antennas with a 1 s chirp needs"; the message goes on with the size in
    MiB, rounded up so that it never reads below the budget, and the
    budget.  It is called on refusal only, so a size that fits formats
    nothing.
    """
    if n_bytes > ENSEMBLE_BUDGET_BYTES:
        budget_mib = ENSEMBLE_BUDGET_BYTES >> 20
        mib = _sig3(-(-n_bytes >> 20), "ROUND_CEILING")  # ceil(n_bytes / 2^20), rounded up
        raise ParameterError(f"{what()} {mib} MiB, over the {budget_mib} MiB budget")


def check_ensemble_size(n_tx: int, n_rx: int, cir_length: int) -> None:
    """Raise ParameterError when a dimension is not an integer >= 1 or the
    CIRs and the spectrum of an ensemble would exceed ENSEMBLE_BUDGET_BYTES."""
    for name, n in (("n_tx", n_tx), ("n_rx", n_rx), ("cir_length", cir_length)):
        _check_int(name, n, low=1)

    def what() -> str:
        dims = f"{_sig3(n_tx)} x {_sig3(n_rx)} CIRs of {_sig3(cir_length)} taps"
        return f"an ensemble of {dims} needs"

    # The spectrum has at least 2L - 1 bins; that bound rejects a huge L
    # before _spectrum_length enumerates the smooth numbers below it.
    check_budget(16 * n_tx * n_rx * (3 * cir_length - 1), lambda: f"{what()} at least")
    check_budget(16 * n_tx * n_rx * (cir_length + _spectrum_length(cir_length)), what)


@dataclass(frozen=True)
class ChannelEnsemble:
    """CIRs indexed by (tx antenna, rx grid position) for one realization.

    n_tx is cirs.shape[0].  ``spectrum`` is the read-only
    fft(cirs, _spectrum_length(L), axis=2), computed at construction and
    shared by every bank propagated through this ensemble.  Its memory is
    frequency-major: spectrum.transpose(2, 0, 1) is C-contiguous, of shape
    (nfft, n_tx, n_rx).
    """

    cirs: np.ndarray  # complex, shape (n_tx, n_rx, cir_length)
    params: CavityParams
    grid: RxGrid
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _finite_array(self.cirs, "CIR taps")
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] != len(self.grid):
            raise DimensionMismatchError(
                f"cirs must have shape (n_tx >= 1, n_rx = {len(self.grid)}, L), got {arr.shape}"
            )
        if arr.shape[2] / self.params.sample_rate_hz < self.params.max_delay_s:
            raise ParameterError("CIR span shorter than max_delay_s")
        arr = arr.astype(np.complex128)  # a copy
        arr.setflags(write=False)
        object.__setattr__(self, "cirs", arr)
        nfft = _spectrum_length(arr.shape[2])
        spec = np.empty((nfft, *arr.shape[:2]), dtype=np.complex128).transpose(1, 2, 0)
        np.fft.fft(arr, nfft, axis=2, out=spec)  # out= needs numpy >= 2.0
        spec.setflags(write=False)
        object.__setattr__(self, "spectrum", spec)

    @property
    def n_tx(self) -> int:
        return self.cirs.shape[0]

    @property
    def cir_length(self) -> int:
        return self.cirs.shape[2]

    @property
    def sample_rate_hz(self) -> float:
        return self.params.sample_rate_hz

    def check_rx(self, rx: int) -> None:
        """Raise InvalidTargetError unless rx is an integer index of a grid
        position."""
        _check_int("grid index", rx, end=len(self.grid), error=InvalidTargetError)

    def cirs_at(self, rx: int) -> np.ndarray:
        """All per-antenna CIRs for one grid position: a read-only
        (n_tx, L) view of cirs."""
        self.check_rx(rx)
        return self.cirs[:, rx]


def draw_paths(params: CavityParams, rng) -> PathSet:
    """Draw one path-set realization.

    Delays are uniform on [0, max_delay_s]; directions uniform on the
    spherical cap of half-angle aperture_half_angle_rad, at polar angle
    theta and azimuth phi about the cap's centre, which is perpendicular
    to the grid axis, so the axial cosine is -sin(theta) sin(phi);
    amplitudes CN(0, sigma_p^2) with sigma_p^2 following
    exp(-tau_p / decay_time_s), normalized so E||h||^2 = 1 per antenna.
    A draw over ENSEMBLE_BUDGET_BYTES raises ParameterError.
    """
    gen = _generator(rng)
    n = params.n_paths
    check_budget(_PATH_BYTES * n, lambda: f"drawing {_sig3(n)} paths needs")
    delays = gen.uniform(0.0, params.max_delay_s, n)

    cos_cap = math.cos(params.aperture_half_angle_rad)
    cos_theta = gen.uniform(cos_cap, 1.0, n)
    phi = gen.uniform(0.0, 2.0 * math.pi, n)
    sin_theta = np.sqrt(np.maximum(1.0 - cos_theta**2, 0.0))
    axial_cos = -(sin_theta * np.sin(phi))

    gauss = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / math.sqrt(2.0)
    variances = np.exp(-delays / params.decay_time_s)
    variances /= params.oversample * variances.sum()
    amplitudes = gauss * np.sqrt(variances)
    return PathSet(delays, axial_cos, amplitudes)


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
      coeff * sinc(k - mu) is added to tap k instead; a branch with no
      such path skips that patch.

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
    any_on_tap = on_tap.any(axis=1)  # most branches have no path on a tap
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
        if any_on_tap[r]:
            near = np.flatnonzero(on_tap[r] & (k[r] >= 0) & (k[r] < n_q))
            taps = k[r, near].astype(np.int64)
            recip[near, taps] = np.inf
        np.reciprocal(recip, out=recip)
        re_im = weights[r] @ recip
        row = re_im[0] + 1j * re_im[1]
        row *= alternating[:n_q]
        if any_on_tap[r]:
            np.add.at(row, taps, coeff[near] * np.sinc(taps - mu[r, near]))
        out[r::oversample] = row
    return out


def _synthesize_taps(
    paths: PathSet,
    position_m: float,
    params: CavityParams,
    length: int,
) -> np.ndarray:
    fs = params.sample_rate_hz
    tau = paths.delays_s + (position_m / SPEED_OF_LIGHT_M_S) * paths.axial_cos
    coeff = paths.amplitudes * np.exp(-2j * np.pi * params.carrier_hz * tau)
    return _sinc_mix(coeff, tau * fs, length, params.oversample)


def build_ensemble(
    params: CavityParams,
    grid: RxGrid,
    n_tx: int,
    rng,
) -> ChannelEnsemble:
    """Synthesize CIRs for every (antenna, position) pair.

    One independent path set is drawn per Tx antenna, sequentially from
    the given seed, so a fixed seed reproduces the ensemble bit-exactly.
    An ensemble, or a synthesis buffer, over ENSEMBLE_BUDGET_BYTES raises
    ParameterError before anything is drawn.
    """
    length = params.cir_length
    check_ensemble_size(n_tx, len(grid), length)
    # _sinc_mix rounds each path's delay in samples to an int64 tap index.
    reach = float(np.max(np.abs(grid.positions_m))) * params.sample_rate_hz / SPEED_OF_LIGHT_M_S
    _check_real("the largest grid delay in samples (below 2**53)", reach, 0.0, 2.0**53, "[)")
    # Synthesis holds one path set and _sinc_mix's (P, ceil(L / oversample))
    # float buffer with its per-path factors of every branch.  By
    # tracemalloc they take about 80 bytes per path, 8 per path and buffer
    # row and 65 per path and branch; the count rounds each up.
    n, over = params.n_paths, params.oversample
    check_budget(
        n * (_PATH_BYTES + 8 * -(-length // over) + 72 * over),
        lambda: f"synthesizing CIRs from {_sig3(n)} paths needs",
    )
    gen = _generator(rng)
    cirs = np.empty((n_tx, len(grid), length), dtype=np.complex128)
    for a in range(n_tx):
        paths = draw_paths(params, gen)
        for r, x in enumerate(grid.positions_m):
            cirs[a, r] = _synthesize_taps(paths, float(x), params, length)
    return ChannelEnsemble(cirs=cirs, params=params, grid=grid)


def spatial_correlation_theory(
    delta_x_m: float,
    carrier_hz: float,
    aperture_half_angle_rad: float,
) -> float:
    """Field correlation of the diffuse model at lag delta_x_m.

    Arrival directions are uniform on the spherical cap of half-angle
    theta_m about a pole perpendicular to the lag, so the correlation
    is the cap average of J0(k dx sin(theta)).  Full sphere (theta_m = pi):
    sin(k dx)/(k dx) with k = 2 pi / lambda.  Other caps: composite
    Gauss-Legendre quadrature on theta in [0, theta_m], with panels in
    which k dx sin(theta) moves by at most 32 rad.  Narrow cones approach
    the paraxial 2 J1(v)/v, v = k dx sin(theta_m); a hemisphere gives
    sin(k dx)/(k dx) again.  An argument or k dx out of its range, or a
    quadrature over ENSEMBLE_BUDGET_BYTES, raises ParameterError.
    """
    _check_real("delta_x_m", delta_x_m)
    _check_real("carrier_hz", carrier_hz, 0.0)
    _check_real("aperture_half_angle_rad", aperture_half_angle_rad, 0.0, math.pi, "(]")
    k = 2.0 * math.pi * float(carrier_hz) / SPEED_OF_LIGHT_M_S
    z = k * abs(float(delta_x_m))
    _check_real("k |delta_x_m|", z)
    if z == 0.0:
        return 1.0
    theta_m = aperture_half_angle_rad
    if theta_m >= math.pi - 1e-12:
        return math.sin(z) / z
    from scipy.special import j0 as _bessel_j0

    n_panels = 1 + int(z * theta_m / 32.0)
    # The quadrature holds at most five (n_panels, 64) float arrays at once.
    check_budget(5 * 8 * 64 * n_panels, lambda: f"a quadrature of {_sig3(n_panels)} panels needs")
    nodes, weights = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, theta_m, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    theta = edges[:-1, None] + half * (nodes + 1.0)
    integral = float(np.sum(half * weights * _bessel_j0(z * np.sin(theta)) * np.sin(theta)))
    # 1 - cos(theta_m), without its cancellation for narrow cones.
    return integral / (2.0 * math.sin(0.5 * theta_m) ** 2)


# ---------------------------------------------------------------------------
# Ensemble file export

_FORMAT_NAME = "trfocus-ensemble"
_FORMAT_VERSION = 2
# Longest header line, newline included, that is written or read: room for
# about 600 000 grid positions.
_MAX_HEADER_BYTES = 16 << 20


def _header_too_long(path) -> ParameterError:
    return ParameterError(f"{path}: header line is over the {_MAX_HEADER_BYTES >> 20} MiB limit")


def save_ensemble(ensemble: ChannelEnsemble, path) -> None:
    """Write an ensemble to disk: one JSON header line, then the taps as
    raw little-endian complex128 ("<c16") in C order, shape (n_tx, n_rx, L),
    which reload bit-exactly.  A path that is not a str or os.PathLike, or
    a header line over _MAX_HEADER_BYTES, raises ParameterError.
    """
    _check_path("path", path)
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "n_tx": ensemble.n_tx,
        "n_rx": len(ensemble.grid),
        "cir_length": ensemble.cir_length,
        "params": asdict(ensemble.params),
        "grid": {"positions_m": [float(x) for x in ensemble.grid.positions_m]},
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    if len(header_line) > _MAX_HEADER_BYTES:
        raise _header_too_long(path)
    with open(path, "wb") as fh:
        fh.write(header_line)
        fh.write(ensemble.cirs.astype("<c16", copy=False).tobytes())


def load_ensemble(path) -> ChannelEnsemble:
    """Inverse of :func:`save_ensemble`.

    A path that is not a str or os.PathLike, a header line over
    _MAX_HEADER_BYTES (it is read no further), a malformed header, a version
    other than 2 (version 1 held a text body), or a body that is not
    exactly 16 * n_tx * n_rx * cir_length bytes raises ParameterError.
    Header keys it does not read are ignored.  The body is read straight
    into the tap array, and no further than its size.
    """
    _check_path("path", path)
    with open(path, "rb") as fh:
        header_line = fh.readline(_MAX_HEADER_BYTES + 1)
        if len(header_line) > _MAX_HEADER_BYTES:
            raise _header_too_long(path)
        try:
            header = json.loads(header_line.decode("utf-8"))
        except ValueError as exc:  # also UnicodeDecodeError
            raise ParameterError(f"{path}: header is not JSON") from exc
        if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
            raise ParameterError(f"{path} is not a {_FORMAT_NAME} file")
        try:
            params = CavityParams(**header["params"])
            positions = header["grid"]["positions_m"]
            # np.array would read numeric strings and bools as floats.
            if not (isinstance(positions, list) and set(map(type, positions)) <= {int, float}):
                raise TypeError(f"grid positions_m {positions!r} must be a list of JSON numbers")
            grid = RxGrid(np.array(positions, dtype=np.float64))
            shape = (header["n_tx"], header["n_rx"], header["cir_length"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"{path}: malformed header ({exc!r})") from exc
        version = header.get("version")
        if version != _FORMAT_VERSION:
            raise ParameterError(
                f"{path}: file version {version!r}; only version {_FORMAT_VERSION} is read"
            )
        check_ensemble_size(*shape)
        cirs = np.empty(shape, dtype="<c16")
        if fh.readinto(cirs) != cirs.nbytes or fh.read(1):
            raise ParameterError(
                f"{path}: body is not {shape[0]}x{shape[1]}x{shape[2]} taps of 16 bytes"
            )
    return ChannelEnsemble(cirs=cirs, params=params, grid=grid)
