"""Kerr-type nonlinear phase evolution of single-mode states.

The Hamiltonian chi * N(N-1) + chi_prime * N(N-1)(N-2) (hbar = 1) is
diagonal in the number basis, so time evolution is an exact per-level
phase and arbitrarily long times cost nothing in accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import SQRT2, FockVector, check_headroom, choose_cutoff, log_gamma
from .series import SamplingPlan, TimeSeries
from .spectral import check_normalized, sample, survival_amplitude


@dataclass(frozen=True)
class KerrParams:
    """Quartic strength chi and optional higher-order strength chi_prime."""

    chi: float
    chi_prime: float = 0.0

    def __post_init__(self):
        if not self.chi > 0:
            raise ValueError("chi must be positive")
        if self.chi_prime < 0:
            raise ValueError("chi_prime must be >= 0")


def level_phases(params: KerrParams, cutoff: int) -> np.ndarray:
    """Eigenfrequency of each number state, chi n(n-1) + chi' n(n-1)(n-2)."""
    n = np.arange(cutoff + 1, dtype=float)
    return params.chi * n * (n - 1) + params.chi_prime * n * (n - 1) * (n - 2)


def evolve_kerr(state: FockVector, params: KerrParams, t: float) -> FockVector:
    """Evolve a normalized state by time t under the Kerr Hamiltonian."""
    check_normalized(state.amplitudes, "evolve_kerr")
    theta = level_phases(params, state.cutoff)
    return FockVector(state.amplitudes * np.exp(-1j * theta * t))


def revival_period(ell: int, chi: float) -> float:
    """Exact revival time of an ell-component ring superposition.

    2*pi/(chi*ell) when ell is even, pi/(chi*ell) when ell is odd; the
    one-component coherent state (ell = 1) falls under the odd rule with
    period pi/chi.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not chi > 0:
        raise ValueError("chi must be positive")
    if ell % 2 == 0:
        return 2.0 * np.pi / (chi * ell)
    return np.pi / (chi * ell)


def xsq_closed_form(alpha: complex, params: KerrParams, t, cutoff: int | None = None):
    """<x^2>(t) for an initial coherent state, summed in closed form.

    <x^2> = 1/2 + |alpha|^2 + Re[alpha^2 S(t)] with
    S(t) = e^{-|alpha|^2} sum_n |alpha|^{2n}/n! e^{-i(2(2n+1)chi + 6 n^2 chi')t},
    the oscillating part being the <a^2> matrix element between levels
    n and n+2.  Accepts a scalar or an array of times.
    """
    if cutoff is None:
        cutoff = choose_cutoff(alpha)
    mean = abs(alpha) ** 2
    n = np.arange(cutoff + 1, dtype=float)
    if mean == 0.0:
        weights = np.zeros(cutoff + 1)
        weights[0] = 1.0
    else:
        weights = np.exp(-mean + n * np.log(mean) - log_gamma(n + 1.0))
    freq = 2.0 * (2.0 * n + 1.0) * params.chi + 6.0 * n**2 * params.chi_prime
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    osc = survival_amplitude(freq, weights, t_arr)
    out = 0.5 + mean + (alpha**2 * osc).real
    return out if np.ndim(t) else float(out[0])


def parse_observable(observable: str) -> tuple[str, int]:
    """Split 'x', 'p^2', ... into (axis, order); 'fidelity' is its own kind."""
    obs = observable.strip().lower()
    if obs == "fidelity":
        return "fidelity", 0
    axis, _, power = obs.partition("^")
    if axis in ("x", "p"):
        if power == "":
            return axis, 1
        if power.isdigit() and int(power) >= 1:
            return axis, int(power)
    raise ValueError(f"unknown observable {observable!r}")


def _band_product(left: dict, right: dict, levels: int) -> dict:
    """The {offset: diagonal} bands of left @ right, both given by their bands."""
    out = {}
    for d1, b1 in left.items():
        for d2, b2 in right.items():
            d = d1 + d2
            lo, hi = max(0, -d1, -d), min(levels, levels - d1, levels - d)
            if lo >= hi:
                continue
            # Row r of a band at offset k is its diagonal entry r + min(0, k); row i of
            # the product takes row i of left and row i + d1 of right.
            term = (b1[lo + min(0, d1): hi + min(0, d1)]
                    * b2[lo + d1 + min(0, d2): hi + d1 + min(0, d2)])
            target = out.setdefault(d, np.zeros(levels - abs(d), dtype=complex))
            target[lo + min(0, d): hi + min(0, d)] += term
    return out


def _quadrature_bands(axis: str, order: int, levels: int) -> dict:
    """x^order or p^order on the first `levels` number states, as {offset: diagonal}."""
    root = np.sqrt(np.arange(1, levels)) / SQRT2
    # x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2); a sits above the diagonal
    quad = {1: root + 0j, -1: root + 0j} if axis == "x" else {1: -1j * root, -1: 1j * root}
    op = quad
    for _ in range(order - 1):
        op = _band_product(op, quad, levels)
    return op


def kerr_series(
    state: FockVector,
    params: KerrParams,
    plan: SamplingPlan,
    observable: str = "x^2",
) -> TimeSeries:
    """Sample <x^k>, <p^k>, or the survival probability along a time grid.

    Fidelity is the survival probability |sum_n |C_n|^2 e^{-i theta_n t}|^2.
    Moments contract the evolved amplitudes with x^k or p^k, built once in
    banded form ({offset: diagonal}) on the number basis padded by k levels.
    """
    kind, order = parse_observable(observable)
    amps, op = state.amplitudes, None
    if kind != "fidelity":
        check_headroom(amps, order)
        amps = np.concatenate([amps, np.zeros(order, dtype=complex)])
        op = _quadrature_bands(kind, order, amps.size)
    theta = level_phases(params, amps.size - 1)
    model = {
        "chi": repr(params.chi),
        "chi_prime": repr(params.chi_prime),
        "cutoff": str(state.cutoff),
    }
    return plan.series(sample(theta, amps, op, plan.times()), "kerr", observable, model)
