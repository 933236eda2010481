"""Bound-state dynamics in a Morse well.

The well V(x) = D (e^{-2 beta x} - 2 e^{-beta x}) supports finitely many
bound states; they are sampled on a real-space grid through generalized
Laguerre polynomials and used as the working basis.  The grid only
serves the position matrix; momentum follows from it and the spectrum.
Wavepackets built on the highest bound level evolve by exact
eigenphases, so revival checks at long times carry no integrator error.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from warnings import warn

import numpy as np

from .errors import GridResolutionError, TruncationError
from .fock import log_gamma
from .series import SamplingPlan, TimeSeries
from .spectral import check_normalized, sample, survival_amplitude

CACHE_FORMAT_VERSION = 1

#: Largest denominator accepted when reading off the rational part of the
#: level-number parameter; the exact-revival bookkeeping needs a small one.
_MAX_DENOMINATOR = 64

#: Ulps within which lam - 1/2 counts as an integer: lam computed from D,
#: beta and mu lands up to 2 ulps away from the integer it stands for.
_LEVEL_ULPS = 4


@dataclass(frozen=True)
class MorseParams:
    """Well depth D, range 1/beta, reduced mass mu, length scale r0 (hbar = 1).

    All derived spectroscopic quantities follow from
    lam = sqrt(2 mu D) r0 / (beta hbar); bound levels exist for n
    strictly below lam - 1/2.
    """

    D: float
    beta: float
    mu: float
    r0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("D", "beta", "mu", "r0", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.n_max < 0:
            raise ValueError("parameters support no bound state")
        frac = self.level_number - np.floor(self.level_number)
        approx = Fraction(frac).limit_denominator(_MAX_DENOMINATOR)
        if abs(float(approx) - frac) > 1e-9:
            warn(
                "level number lam - 1/2 is not close to a small rational; "
                "revival periods are approximate",
                stacklevel=2,
            )

    @property
    def lam(self) -> float:
        return np.sqrt(2.0 * self.mu * self.D) * self.r0 / (self.beta * self.hbar)

    @property
    def level_number(self) -> float:
        """lam - 1/2, the quantity whose integer/fractional split sets revivals."""
        return self.lam - 0.5

    @property
    def n_max(self) -> int:
        """Index of the highest bound state: largest n with n < lam - 1/2.

        When lam - 1/2 is an integer, to within _LEVEL_ULPS, the state at
        that index sits exactly at the dissociation threshold and is not
        normalizable, so the strict inequality excludes it.
        """
        edge = self.level_number
        k = np.rint(edge)
        if abs(edge - k) <= _LEVEL_ULPS * np.spacing(k):
            return int(k) - 1
        return int(np.floor(edge))

    @property
    def anharmonicity(self) -> float:
        """x_e * omega_e = hbar beta^2 / (2 mu r0^2), the n^2 energy coefficient."""
        return self.hbar * self.beta**2 / (2.0 * self.mu * self.r0**2)

    @property
    def omega(self) -> float:
        return 2.0 * self.anharmonicity * self.level_number

    @property
    def omega_e(self) -> float:
        return self.anharmonicity * (2.0 * self.level_number + 1.0)

    @property
    def x_e(self) -> float:
        return 1.0 / (2.0 * self.level_number + 1.0)

    @property
    def period_denominator(self) -> int:
        """v in the rational split of the level number, n' + u/v."""
        frac = self.level_number - np.floor(self.level_number)
        return Fraction(frac).limit_denominator(_MAX_DENOMINATOR).denominator

    def bound_energies(self) -> np.ndarray:
        """E_n above the ground level: hbar (omega n - anharmonicity n^2)."""
        n = np.arange(self.n_max + 1, dtype=float)
        return self.hbar * (self.omega * n - self.anharmonicity * n**2)


#: Parameter sets ready for use; 'default' holds lam = 21.5 exactly, which
#: gives 21 bound states (n' = 20, even), an integer level number (v = 1),
#: and a revival period of exactly 4 pi.
MORSE_PRESETS = {
    "default": MorseParams(D=231.125, beta=1.0, mu=1.0, r0=1.0),
}


@dataclass(frozen=True)
class MorseEigenbasis:
    """Bound eigenfunctions sampled on a uniform displacement grid.

    psi[n, i] is the n-th normalized eigenfunction at grid[i]; energies
    are referenced to the ground level.  Displacement is measured from
    the well minimum in units of r0.
    """

    params: MorseParams
    grid: np.ndarray
    psi: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        for name in ("grid", "psi", "energies"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.psi.shape != (self.energies.size, self.grid.size):
            raise ValueError("psi shape must be (n_states, n_grid)")

    @property
    def n_states(self) -> int:
        return self.energies.size


#: Points of the default grid: the preset's overlaps then meet the identity
#: to 2e-14, far inside `build_eigenbasis`'s 1e-6 gate.  Part of the cache key.
GRID_POINTS = 6000


def default_grid(params: MorseParams, n_points: int = GRID_POINTS) -> np.ndarray:
    """Uniform grid covering every bound state down to ~1e-9 amplitude.

    The inner wall is steep (xi grows like e^{-beta x}), so a fixed
    -1.5/beta suffices on the left.  On the right the weakest-bound state
    decays like xi^{s/2} with s = 2(lam - n_max) - 1, which sets how far
    the tail must be followed.
    """
    lam = params.lam
    s_min = 2.0 * (lam - params.n_max) - 1.0
    x_min = -1.5 / params.beta
    x_max = (np.log(2.0 * lam) + 45.0 / s_min) / params.beta
    return np.linspace(x_min, x_max, n_points)


def build_eigenbasis(
    params: MorseParams, grid: np.ndarray | None = None
) -> MorseEigenbasis:
    """Sample all bound eigenfunctions and verify their orthonormality.

    Each state is N_n e^{-xi/2} xi^{s/2} L_n^s(xi) with xi = 2 lam e^{-beta x}
    and s = 2(lam - n) - 1; the normalization constant is assembled in log
    space.  Trapezoid overlaps must reproduce the identity to 1e-6, else
    the grid is rejected.
    """
    if grid is None:
        grid = default_grid(params)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 16:
        raise ValueError("grid must be a 1-d array with at least 16 points")
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    lam = params.lam
    xi = 2.0 * lam * np.exp(-params.beta * grid)
    log_xi = np.log(xi)
    n_states = params.n_max + 1
    psi = np.empty((n_states, grid.size))
    for n in range(n_states):
        s = 2.0 * (lam - n) - 1.0
        log_norm = 0.5 * (
            np.log(params.beta)
            + np.log(s)
            + math.lgamma(n + 1.0)
            - math.lgamma(2.0 * lam - n)
        )
        envelope = np.exp(log_norm - 0.5 * xi + 0.5 * s * log_xi)
        psi[n] = envelope * _laguerre(n, s, xi)
    basis = MorseEigenbasis(params, grid, psi, params.bound_energies())
    residue = orthonormality_residue(basis)
    if residue > 1e-6:
        raise GridResolutionError(
            f"eigenbasis overlap residue {residue:.3e} > 1e-6; refine the grid"
        )
    return basis


def _laguerre(n: int, s: float, x: np.ndarray) -> np.ndarray:
    """L_n^s(x) by the three-term recurrence (Abramowitz & Stegun 22.7.12)."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + s - x) * cur - (k + s) * prev) / (k + 1)
    return cur


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.full(grid.size, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _quadrature(psi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i psi[m, i] weights[i] psi[n, i] for every pair (m, n).

    np.einsum without `optimize` sums in its own loops and never calls BLAS.
    The product (psi * weights) @ psi.T would be a GEMM of n_states^2 x 6000
    multiply-adds, past the 2^18 that OpenBLAS runs on the calling thread
    (spectral's docstring, Contraction); its idle workers then spin on the
    other cores for about 0.12 s of CPU after it returns.  On the default
    basis einsum takes about 2 ms; the threaded product takes 7.6 ms when
    the workers must first wake, and 1.1 ms when they are already spinning.
    """
    return np.einsum("mi,ni->mn", psi * weights, psi)


def orthonormality_residue(basis: MorseEigenbasis) -> float:
    gram = _quadrature(basis.psi, _trapezoid_weights(basis.grid))
    return float(np.max(np.abs(gram - np.eye(basis.n_states))))


def position_matrix(basis: MorseEigenbasis) -> np.ndarray:
    """Displacement operator in the bound basis, via trapezoid quadrature
    (`_quadrature`, which calls no BLAS)."""
    mat = _quadrature(basis.psi, _trapezoid_weights(basis.grid) * basis.grid)
    residue = float(np.max(np.abs(mat - mat.T)))
    if residue > 1e-8:
        raise GridResolutionError(
            f"position matrix asymmetry {residue:.3e} > 1e-8"
        )
    return 0.5 * (mat + mat.T)


def momentum_matrix(basis: MorseEigenbasis) -> np.ndarray:
    """-i hbar d/dx in the bound basis, from the spectrum and x.

    Displacement x is in units of r0, so H = -hbar^2/(2 mu r0^2) d^2/dx^2
    + V(x) and [H, x] = -hbar^2/(mu r0^2) d/dx = -i hbar p / (mu r0^2)
    with p = -i hbar d/dx.  Between bound eigenstates
    <m|[H, x]|n> = (E_m - E_n) x_mn, hence

        p_mn = i mu r0^2 (E_m - E_n) x_mn / hbar,

    exact given x: no derivative of the sampled states is taken.  x is
    exactly symmetric, so p is Hermitian with a zero real part and a zero
    diagonal.
    """
    params = basis.params
    gaps = basis.energies[:, None] - basis.energies[None, :]
    scale = params.mu * params.r0**2 / params.hbar
    return 1j * (scale * gaps * position_matrix(basis))


@dataclass(frozen=True)
class MorseState:
    """Expansion coefficients over a MorseEigenbasis."""

    coeffs: np.ndarray
    basis: MorseEigenbasis

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.n_states,):
            raise ValueError("coeffs must match the basis size")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _annihilation_weights(alpha: complex, params: MorseParams, n_prime: int):
    """Unnormalized packet coefficients d_n over n = 0 .. n_max."""
    lam = params.lam
    n = np.arange(params.n_max + 1, dtype=float)
    k = n_prime - n
    valid = k >= 0
    d = np.zeros(params.n_max + 1, dtype=complex)
    if alpha == 0:
        d[n_prime] = 1.0
        return d
    kk = k[valid]
    log_mag = (
        kk * np.log(abs(alpha))
        - log_gamma(kk + 1.0)
        + 0.5
        * (
            math.lgamma(n_prime + 1.0)
            + log_gamma(2.0 * lam - n[valid])
            - log_gamma(n[valid] + 1.0)
            - math.lgamma(2.0 * lam - n_prime)
        )
    )
    phase = kk * np.angle(-alpha)
    d[valid] = np.exp(log_mag + 1j * phase)
    if not np.all(np.isfinite(d)):
        raise TruncationError("packet coefficients overflow; reduce |alpha|")
    return d


def perelomov_state(
    alpha: complex, basis: MorseEigenbasis, n_prime: int | None = None
) -> MorseState:
    """Coherent-like wavepacket annihilated from the n' bound level.

    Coefficients are (-alpha)^{n'-n}/(n'-n)! times the square root of
    n'! Gamma(2 lam - n) / (n! Gamma(2 lam - n')), assembled in log space
    and normalized numerically.  alpha = 0 reduces to the bare n' state;
    by default n' is the highest bound level.  This is `superpose_morse`
    at ell = 1, which masks nothing.
    """
    return superpose_morse(alpha, 1, basis, n_prime)


def superpose_morse(
    alpha: complex,
    ell: int,
    basis: MorseEigenbasis,
    n_prime: int | None = None,
) -> MorseState:
    """ell-component superposition of rotated wavepackets on level n'.

    Rotating alpha by the ell-th roots of unity and summing keeps only
    coefficients with n = n' (mod ell); the surviving entries equal the
    single-packet ones, so the state is built by exact masking, which
    always keeps n = n'.  n' must be a bound level, and the two-component
    (even) case requires an even n'.
    """
    params = basis.params
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if n_prime is None:
        n_prime = params.n_max
    if not 0 <= n_prime <= params.n_max:
        raise ValueError("n_prime outside the bound spectrum")
    if ell == 2 and n_prime % 2 != 0:
        raise ValueError(
            f"even superposition needs an even top level, got n' = {n_prime}"
        )
    d = _annihilation_weights(alpha, params, n_prime)
    n = np.arange(params.n_max + 1)
    d[(n_prime - n) % ell != 0] = 0.0
    return MorseState(d / np.linalg.norm(d), basis)


def evolve_morse(state: MorseState, t: float) -> MorseState:
    """Evolve by exact bound-state eigenphases."""
    check_normalized(state.coeffs, "evolve_morse")
    hbar = state.basis.params.hbar
    phases = np.exp(-1j * state.basis.energies * t / hbar)
    return MorseState(state.coeffs * phases, state.basis)


def morse_autocorrelation(state: MorseState, t):
    """<psi(0)|psi(t)> = sum_n |c_n|^2 e^{-i E_n t / hbar}; scalar or array t."""
    energies = state.basis.energies / state.basis.params.hbar
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = survival_amplitude(energies, np.abs(state.coeffs) ** 2, t_arr)
    return out if np.ndim(t) else complex(out[0])


def morse_revival_period(ell: int, params: MorseParams) -> float:
    """Revival time of an ell-component packet on the top level.

    The base packet revives after 2 pi v / (x_e omega_e), v being the
    denominator of the rational part of the level number; an ell-fold
    superposition revives after 1/(2 ell) of that.  (The superposition
    value is a revival time, not necessarily the shortest one.)
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    base = 2.0 * np.pi * params.period_denominator / params.anharmonicity
    if ell == 1:
        return base
    return base / (2.0 * ell)


def morse_moments_series(
    state: MorseState,
    plan: SamplingPlan,
    observable: str = "x",
) -> TimeSeries:
    """Sample <x>(t), <p>(t) or the survival probability over a uniform grid.

    Evolution is diagonal, so the spectral kernel phases the coefficients
    and contracts them against the 21x21 (or so) operator matrix.
    'autocorrelation' and 'survival' both name |<psi(0)|psi(t)>|^2; case and
    surrounding blanks are ignored.
    """
    name = observable.strip().lower()
    if name == "x":
        op = position_matrix(state.basis)
    elif name == "p":
        op = momentum_matrix(state.basis)
    elif name in ("autocorrelation", "survival"):
        op = None
    else:
        raise ValueError(f"morse observable must be x, p, autocorrelation, or survival; "
                         f"got {observable!r}")
    params = state.basis.params
    vals = sample(state.basis.energies / params.hbar, state.coeffs, op, plan.times())
    model = {
        "D": repr(params.D),
        "beta": repr(params.beta),
        "mu": repr(params.mu),
        "r0": repr(params.r0),
    }
    return plan.series(vals, "morse", observable, model)


def cache_path(params: MorseParams, cache_dir: str) -> str:
    """Deterministic cache file name for a parameter set on the default grid."""
    key = "|".join(
        repr(v)
        for v in (params.D, params.beta, params.mu, params.r0, params.hbar, GRID_POINTS)
    )
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"morse_basis_{digest}.npz")


def cached_eigenbasis(params: MorseParams, cache_dir: str | None = None) -> MorseEigenbasis:
    """Build the basis, reusing an on-disk copy when a cache dir is given."""
    if cache_dir is None:
        return build_eigenbasis(params)
    path = cache_path(params, cache_dir)
    if os.path.exists(path):
        return load_eigenbasis(path, params)
    basis = build_eigenbasis(params)
    save_eigenbasis(path, basis)
    return basis


def save_eigenbasis(path: str, basis: MorseEigenbasis) -> None:
    """Write the sampled basis to an .npz file, atomically."""
    payload = {
        "format_version": np.array(CACHE_FORMAT_VERSION),
        "grid": basis.grid,
        "psi": basis.psi,
        "energies": basis.energies,
        "params": np.array(
            [
                basis.params.D,
                basis.params.beta,
                basis.params.mu,
                basis.params.r0,
                basis.params.hbar,
            ]
        ),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_eigenbasis(path: str, params: MorseParams | None = None) -> MorseEigenbasis:
    """Load a cached basis, checking version and (optionally) parameters."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CACHE_FORMAT_VERSION:
            raise ValueError(
                f"cache format {version} != supported {CACHE_FORMAT_VERSION}"
            )
        stored = data["params"]
        loaded = MorseParams(*[float(v) for v in stored])
        if params is not None and stored.tolist() != [
            params.D,
            params.beta,
            params.mu,
            params.r0,
            params.hbar,
        ]:
            raise ValueError("cached basis was built for different parameters")
        return MorseEigenbasis(loaded, data["grid"], data["psi"], data["energies"])
