"""Truncated Fock-space states of a single bosonic mode.

Coherent states and their ring superpositions are represented by their
number-basis amplitudes up to a finite cutoff.  Amplitudes are built in
log space so that large mean occupations (|alpha|^2 ~ 100 and beyond)
never touch an explicit factorial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalContractError, TruncationError
from .spectral import IMAG_TOL, check_normalized

SQRT2 = np.sqrt(2.0)

#: Poisson weight allowed above the cutoff when a state is constructed.
TAIL_BOUND = 1e-12


@dataclass(frozen=True)
class FockVector:
    """Number-basis amplitudes C_0 .. C_cutoff of a single-mode state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

    def __len__(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class SuperpositionSpec:
    """Defining data of an ell-component ring superposition of coherent states.

    norm_const is the numerically computed prefactor that normalizes the
    plain sum of the ell rotated coherent states.
    """

    alpha: complex
    ell: int
    norm_const: float

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if not self.norm_const > 0:
            raise ValueError("norm_const must be positive")


def log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for each entry of a 1-d array of positive reals (log n! at x = n + 1)."""
    return np.array([math.lgamma(v) for v in np.asarray(x, dtype=float).tolist()], dtype=float)


def _poisson_tails(first: int, count: int, mean: float) -> np.ndarray:
    """P(N > k) for k = first .. first + count - 1, N Poisson with mean > 0.

    Each tail is a sum of pmf terms exp(n log mean - mean - log n!), added
    from the far end, where above the mode they are smallest, so a tail
    keeps the relative error of its terms however small it is.  The terms
    stop 12 sqrt(mean) + 60 levels above the mean or the last k, whichever
    is higher; the pmf there is below e^-70 of its value at that level.
    """
    top = max(first + count, math.ceil(mean)) + math.ceil(12.0 * math.sqrt(mean) + 60.0)
    n = np.arange(first + 1, top + 1)
    pmf = np.exp(n * math.log(mean) - mean - log_gamma(n + 1.0))
    return np.cumsum(pmf[::-1])[::-1][:count]


def poisson_tail(cutoff: int, mean: float) -> float:
    """P(N > cutoff) for a Poisson variable with the given mean."""
    if mean <= 0.0:
        return 0.0
    return float(_poisson_tails(cutoff, 1, mean)[0])


def choose_cutoff(alpha: complex) -> int:
    """Smallest cutoff with Poisson tail below TAIL_BOUND, plus 1.5x headroom.

    The headroom keeps ring superpositions (whose support lives on a
    sublattice of the number axis) and repeated quadrature applications
    away from the truncation edge.
    """
    mean = abs(alpha) ** 2
    if mean == 0.0:
        return 8
    lo = int(np.floor(mean))
    span = int(np.ceil(20.0 * np.sqrt(mean) + 40.0))
    hit = np.nonzero(_poisson_tails(lo, span, mean) < TAIL_BOUND)[0]
    if hit.size == 0:  # pragma: no cover - span is generous
        raise TruncationError(f"no admissible cutoff below {lo + span}")
    n0 = lo + int(hit[0])
    return max(int(np.ceil(1.5 * n0)), 8)


def coherent_state(alpha: complex, cutoff: int | None = None) -> FockVector:
    """Coherent state |alpha> truncated at the given cutoff.

    Amplitudes are exp(-|alpha|^2/2) alpha^n / sqrt(n!), evaluated through
    log-magnitudes and an explicit phase so that no factorial is ever
    formed.  Raises TruncationError when the discarded Poisson weight
    above the cutoff is not below TAIL_BOUND.
    """
    if cutoff is None:
        cutoff = choose_cutoff(alpha)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    mean = abs(alpha) ** 2
    tail = poisson_tail(cutoff, mean)
    if not tail < TAIL_BOUND:
        raise TruncationError(
            f"cutoff {cutoff} keeps Poisson tail {tail:.3e} >= {TAIL_BOUND:.0e} "
            f"for |alpha|^2 = {mean:g}"
        )
    n = np.arange(cutoff + 1)
    if mean == 0.0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps)
    logmag = -0.5 * mean + n * np.log(abs(alpha)) - 0.5 * log_gamma(n + 1.0)
    phase = n * np.angle(alpha)
    return FockVector(np.exp(logmag + 1j * phase))


def superpose_coherent(
    alpha: complex, ell: int, cutoff: int | None = None
) -> tuple[FockVector, SuperpositionSpec]:
    """Normalized sum of ell coherent states at angles 2*pi*j/ell.

    The rotated components share |alpha|, so their amplitude sum is the
    coherent amplitude times sum_j exp(i 2 pi j n / ell), which vanishes
    identically unless ell divides n.  The returned vector therefore has
    exactly zero amplitude off the sublattice; no roundoff residue from
    summing near-cancelling terms is left behind.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if cutoff is None:
        cutoff = choose_cutoff(alpha)
    base = coherent_state(alpha, cutoff)
    amps = np.array(base.amplitudes)
    n = np.arange(cutoff + 1)
    amps[n % ell != 0] = 0.0
    masked_norm = np.linalg.norm(amps)
    if masked_norm == 0.0:
        raise TruncationError("superposition support fell outside the cutoff")
    norm_const = 1.0 / (ell * masked_norm)
    return FockVector(amps / masked_norm), SuperpositionSpec(alpha, ell, norm_const)


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b>, zero-padding the shorter vector."""
    n = max(len(a), len(b))
    va = np.zeros(n, dtype=complex)
    vb = np.zeros(n, dtype=complex)
    va[: len(a)] = a.amplitudes
    vb[: len(b)] = b.amplitudes
    return complex(np.vdot(va, vb))


def norm(a: FockVector) -> float:
    return float(np.linalg.norm(a.amplitudes))


def apply_quadrature(amps: np.ndarray, axis: str) -> np.ndarray:
    """Apply x = (a + a^dag)/sqrt(2) or p = (a - a^dag)/(i sqrt(2)) to a vector.

    The result has the same length; the caller is responsible for headroom
    at the top of the ladder.
    """
    root = np.sqrt(np.arange(1, amps.size))
    lowered = np.zeros_like(amps)
    raised = np.zeros_like(amps)
    lowered[:-1] = root * amps[1:]  # a
    raised[1:] = root * amps[:-1]  # a^dag
    if axis == "x":
        return (lowered + raised) / SQRT2
    if axis == "p":
        return (lowered - raised) / (1j * SQRT2)
    raise ValueError(f"axis must be 'x' or 'p', got {axis!r}")


#: Most weight the top `order` levels of a state may carry before a moment of
#: that order, whose ladder reaches `order` levels past the cutoff.
HEADROOM_WEIGHT = 1e-10


def check_headroom(amps: np.ndarray, order: int) -> None:
    """Raise TruncationError when the top `order` levels carry > HEADROOM_WEIGHT."""
    top_weight = float(np.sum(np.abs(amps[-order:]) ** 2))
    if top_weight > HEADROOM_WEIGHT:
        raise TruncationError(
            f"top {order} levels carry weight {top_weight:.3e} > {HEADROOM_WEIGHT:g}; "
            "increase the cutoff"
        )


def quadrature_moment(state: FockVector, axis: str, order: int) -> float:
    """<x^order> or <p^order> of a normalized state.

    The ladder is padded by `order` extra levels before the operator chain
    is applied, so the only truncation concern is weight already sitting
    at the top of the input vector; more than HEADROOM_WEIGHT of it within
    `order` levels of the cutoff is rejected (`check_headroom`).  Like the
    spectral kernel, the gate on the imaginary part is relative, to
    max(1, sum |c_n (O psi)_n|).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    check_normalized(state.amplitudes, "quadrature_moment")
    amps = state.amplitudes
    check_headroom(amps, order)
    padded = np.concatenate([amps, np.zeros(order, dtype=complex)])
    work = padded
    for _ in range(order):
        work = apply_quadrature(work, axis)
    value = np.vdot(padded, work)
    size = float(np.abs(padded) @ np.abs(work))
    if abs(value.imag) > IMAG_TOL * max(1.0, size):
        raise NumericalContractError(
            f"moment has imaginary residue {value.imag:.3e} > {IMAG_TOL:g} x max(1, {size:.3e})"
        )
    return float(value.real)
