"""The shared spectral kernel against direct single-time evolution.

Oracles:
  - each model's single-time path (evolve_kerr, evolve_bjj, evolve_morse
    followed by a plain contraction), sampled at t ~ 1e5 .. 1e6 where
    E t reaches 1e7 rad or more, over enough samples to cross several
    kernel blocks;
  - a per-time vdot(c(t), op @ c(t)) on generated spectra, coefficients
    and Hermitian operators, dense or banded ({offset: diagonal});
  - the survival amplitude at t = 0 is the total population;
  - a level with zero weight contributes nothing, so the energy it is
    given (NaN included) cannot change the series;
  - the kernel phasing every level of nonzero weight (conftest's
    exact_zero_levels): the levels the resolvable-level rule drops carry
    at most 2^-53 sum |M| of bound, and the series moves by no more than
    that plus rounding;
  - a diagonal-only banded operator has the constant expectation sum A_0;
  - the dense contraction as one product K V over the whole block
    (conftest's single_product): the column chunks move the series by no
    more than the rounding of a 2L-term dot;
  - every phase the kernel generates is np.exp(-1j * E t) to 1e-15, for
    |E t| up to 1e12, at E t = 0, at odd multiples of pi, and on levels
    either side of the reduction limit;
  - every tan argument of a level under the reduction limit lies within
    pi/2 (plus the quotient's rounding), and a level at or over it is
    handed to tan as (E/2) t itself.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from qnldyn import kerr, spectral
from qnldyn.bjj import (
    BJJParams,
    SpinState,
    bloch_series,
    build_bjj,
    evolve_bjj,
    make_initial,
    su2_coherent,
)
from qnldyn.errors import NormalizationError, NumericalContractError
from qnldyn.fock import FockVector, coherent_state, inner, quadrature_moment, superpose_coherent
from qnldyn.kerr import KerrParams, evolve_kerr, kerr_series, level_phases
from qnldyn.morse import (
    MorseState,
    evolve_morse,
    morse_autocorrelation,
    morse_moments_series,
    position_matrix,
    superpose_morse,
)
from qnldyn.series import SamplingPlan

# Every test here is rerun on numpy's baseline (non-SIMD) kernels in CI.
pytestmark = pytest.mark.baseline_kernels


def as_banded(op: np.ndarray) -> dict:
    """The nonzero diagonals of a square matrix, as expectation_series takes them."""
    n = op.shape[0]
    bands = {d: np.diagonal(op, d) for d in range(1 - n, n)}
    return {d: band for d, band in bands.items() if np.any(band)}


def long_plan(t_start: float, dt: float, levels: int) -> SamplingPlan:
    """A plan crossing two kernel block boundaries for this many levels."""
    return SamplingPlan(t_start, dt, 2 * (spectral._BLOCK_ENTRIES // levels) + 17)


# ------------------------------------------------------- long-time agreement


KERR = KerrParams(chi=1.0, chi_prime=1e-3)


def test_kerr_second_moment_matches_direct_path_at_long_times():
    state = coherent_state(5.0)
    plan = long_plan(2.5e5, 0.37, state.cutoff + 3)
    assert level_phases(KERR, state.cutoff)[-1] * plan.t_start > 1e6
    series = kerr_series(state, KERR, plan, "x^2")
    direct = [
        quadrature_moment(evolve_kerr(state, KERR, t), "x", 2) for t in plan.times()
    ]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


def test_kerr_fidelity_matches_direct_path_at_long_times():
    state = coherent_state(5.0)
    plan = long_plan(9.1e5, 0.23, state.cutoff + 1)
    series = kerr_series(state, KERR, plan, "fidelity")
    direct = [
        abs(inner(state, evolve_kerr(state, KERR, t))) ** 2 for t in plan.times()
    ]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


def test_bjj_lx_matches_direct_path_at_long_times():
    ops = build_bjj(BJJParams.from_u(40, 50.0))
    state = make_initial("even", 40)
    plan = long_plan(1.7e5, 0.02, ops.params.dim)
    energies, _ = ops.eigensystem()
    assert np.max(np.abs(energies)) * plan.t_start > 1e6
    series = bloch_series(state, ops, plan, observable="lx")
    direct = []
    for t in plan.times():
        v = evolve_bjj(state, ops, float(t)).amplitudes
        direct.append(2.0 * (v.conj() @ ops.lx @ v).real / 40)
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


def test_morse_x_matches_direct_path_at_long_times(morse_basis):
    state = superpose_morse(0.4, 2, morse_basis)
    plan = long_plan(6.4e5, 0.01, morse_basis.n_states)
    assert morse_basis.energies[-1] * plan.t_start > 1e6
    x_op = position_matrix(morse_basis)
    series = morse_moments_series(state, plan, "x")
    direct = []
    for t in plan.times():
        c = evolve_morse(state, float(t)).coeffs
        direct.append((c.conj() @ x_op @ c).real)
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("ell", [2, 3])
def test_kerr_superposition_second_moment_matches_direct_path(ell):
    state, _ = superpose_coherent(5.0, ell)
    plan = long_plan(1.3e5, 0.31, np.count_nonzero(state.amplitudes))
    series = kerr_series(state, KERR, plan, "x^2")
    direct = [
        quadrature_moment(evolve_kerr(state, KERR, t), "x", 2) for t in plan.times()
    ]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("ell", [2, 3])
def test_kerr_superposition_fidelity_matches_direct_path(ell):
    state, _ = superpose_coherent(5.0, ell)
    plan = long_plan(7.7e5, 0.29, np.count_nonzero(state.amplitudes))
    series = kerr_series(state, KERR, plan, "fidelity")
    direct = [
        abs(inner(state, evolve_kerr(state, KERR, t))) ** 2 for t in plan.times()
    ]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


def test_morse_autocorrelation_matches_direct_path_at_long_times(morse_basis):
    state = superpose_morse(0.4, 2, morse_basis)
    plan = long_plan(5.2e5, 0.013, np.count_nonzero(state.coeffs))
    got = morse_autocorrelation(state, plan.times())
    direct = [
        np.vdot(state.coeffs, evolve_morse(state, float(t)).coeffs)
        for t in plan.times()
    ]
    assert_allclose(got, direct, rtol=0.0, atol=1e-9)


# ------------------------------------------------------------ empty levels


def test_empty_levels_are_never_phased():
    energies = np.array([0.3, np.nan, -1.7, np.nan, 2.9])
    coeffs = np.array([0.6, 0.0, 0.48j, 0.0, -0.64])
    op = np.ones((5, 5), dtype=complex)
    times = np.linspace(0.0, 40.0, 300)
    via_dense = spectral.expectation_series(energies, coeffs, op, times)
    via_banded = spectral.expectation_series(energies, coeffs, as_banded(op), times)
    survival = spectral.survival_amplitude(energies, np.abs(coeffs) ** 2, times)
    occupied = [0, 2, 4]
    kept_op = op[np.ix_(occupied, occupied)]
    kept = spectral.expectation_series(
        energies[occupied], coeffs[occupied], kept_op, times
    )
    kept_banded = spectral.expectation_series(
        energies[occupied], coeffs[occupied], as_banded(kept_op), times
    )
    assert np.all(np.isfinite(via_dense)) and np.all(np.isfinite(survival))
    assert np.array_equal(via_dense, kept)
    assert np.array_equal(via_banded, kept_banded)
    # Dense and banded contractions sum in different orders.
    assert_allclose(via_banded, via_dense, rtol=0.0, atol=1e-15)
    assert_allclose(survival[0], 1.0, rtol=1e-15)


@pytest.mark.parametrize("axis, order, ell, offsets", [
    ("x", 2, 1, [-2, 0, 2]), ("x", 2, 2, [-1, 0, 1]), ("p", 3, 3, [-1, 1]),
    ("x", 1, 2, []), ("x", 4, 2, [-2, -1, 0, 1, 2]), ("p", 3, 2, []),
], ids=["x2-l1", "x2-l2", "p3-l3", "x1-l2", "x4-l2", "p3-l2"])
def test_sublattice_states_keep_only_their_bands(axis, order, ell, offsets):
    """An ell-component state keeps levels n = 0 mod ell: a diagonal at an
    offset that is not a multiple of ell has no kept entry and goes, and one
    at offset k * ell becomes offset k on the kept levels."""
    state, _ = superpose_coherent(3.0, ell)
    amps = np.concatenate([state.amplitudes, np.zeros(order, dtype=complex)])
    op = kerr._quadrature_bands(axis, order, amps.size)
    keep = np.flatnonzero(amps)
    restricted = spectral._restrict(op, keep, amps.size)
    assert sorted(restricted) == offsets
    dense = sum(np.diag(band, d) for d, band in op.items())
    kept = sum((np.diag(band, d) for d, band in restricted.items()),
               np.zeros((keep.size, keep.size), dtype=complex))
    assert np.array_equal(kept, dense[np.ix_(keep, keep)])
    plan = SamplingPlan(0.2, 0.37, 50)
    series = kerr_series(state, KERR, plan, f"{axis}^{order}")
    direct = [quadrature_moment(evolve_kerr(state, KERR, t), axis, order)
              for t in plan.times()]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("bands", [{1: np.ones(5)}, {0: np.ones(3), 2: np.ones(2)},
                                   {-7: np.ones(1)}])
def test_banded_operator_with_misshapen_diagonal_is_rejected(bands):
    with pytest.raises(ValueError, match="diagonal"):
        spectral.expectation_series(np.zeros(4), np.full(4, 0.5), bands, np.zeros(2))


@pytest.mark.parametrize("levels", [0, 1, 6])
def test_all_zero_weights_give_zero_series(levels):
    energies = np.linspace(-2.0, 3.0, levels)
    times = np.linspace(0.0, 5.0, 7)
    for op in (np.eye(levels), as_banded(np.eye(levels))):
        vals = spectral.expectation_series(energies, np.zeros(levels), op, times)
        assert np.array_equal(vals, np.zeros(7))
    amp = spectral.survival_amplitude(energies, np.zeros(levels), times)
    assert np.array_equal(amp, np.zeros(7, dtype=complex))


# --------------------------------------------------------- resolvable levels


#: The unit roundoff: the resolvable-level rule drops at most this share of sum |M|.
UNIT_ROUNDOFF = 2.0**-53


@st.composite
def resolvable_problems(draw, spread):
    """(kind, energies, coeffs, op, times, block_entries): op dense, banded
    (kerr's x^k or p^k) or None for the survival amplitude; coefficient
    magnitudes 10^-s for s drawn from `spread`, with exact zeros mixed in."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["dense", "x", "p", "survival"]))
    energies = draw(arrays(float, n, elements=st.floats(-50.0, 50.0)))
    scale = 10.0 ** -draw(arrays(float, n, elements=spread))
    angle = draw(arrays(float, n, elements=st.floats(0.0, 2 * np.pi)))
    coeffs = scale * np.exp(1j * angle)
    coeffs[draw(arrays(bool, n))] = 0.0
    if not np.any(coeffs):
        coeffs[0] = 1.0
    coeffs /= np.linalg.norm(coeffs)
    if kind == "dense":
        # Entries of modulus 0.5 to 1, so weights follow the coefficients.
        modulus = draw(arrays(float, (n, n), elements=st.floats(0.5, 1.0)))
        phase = draw(arrays(float, (n, n), elements=st.floats(0.0, 2 * np.pi)))
        raw = modulus * np.exp(1j * phase)
        op = np.triu(raw, 1) + np.triu(raw, 1).conj().T + np.diag(modulus.diagonal())
    elif kind == "survival":
        op = None
    else:
        op = kerr._quadrature_bands(kind, draw(st.integers(1, 4)), n)
    times = draw(arrays(float, st.integers(1, 120), elements=st.floats(0.0, 1e3)))
    return kind, energies, coeffs, op, times, draw(st.integers(1, 64))


def dense_weights(coeffs, op):
    """|M| for M = diag(c*) op diag(c), op dense or banded, formed directly."""
    if isinstance(op, dict):
        op = sum(np.diag(band, d) for d, band in op.items())
    return np.abs(np.conj(coeffs)[:, None] * op * coeffs)


def kernel_run(energies, coeffs, op, times, block_entries, rule=None):
    """(series, kept levels): expectation_series, or survival_amplitude when
    op is None, with the level rule replaced by `rule` when it is given."""
    kept = []
    choose = rule or spectral._resolvable

    def recording(bounds, size):
        kept.append(choose(bounds, size))
        return kept[-1]

    with mock.patch.object(spectral, "_BLOCK_ENTRIES", block_entries), \
            mock.patch.object(spectral, "_resolvable", recording):
        if op is None:
            got = spectral.survival_amplitude(energies, np.abs(coeffs) ** 2, times)
        else:
            got = spectral.expectation_series(energies, coeffs, op, times)
    return got, kept[0]


@settings(max_examples=150, deadline=None)
@given(resolvable_problems(st.floats(0.0, 40.0)))
def test_dropped_levels_move_the_series_below_rounding(exact_zero_levels, problem):
    kind, energies, coeffs, op, times, block_entries = problem
    if op is None:
        bounds = np.abs(coeffs) ** 2
        size = math.fsum(bounds)
    else:
        weights = dense_weights(coeffs, op)
        bounds = weights.sum(axis=0) + weights.sum(axis=1)
        size = math.fsum(weights.ravel())
    got, kept = kernel_run(energies, coeffs, op, times, block_entries)
    oracle, every = kernel_run(energies, coeffs, op, times, block_entries, exact_zero_levels)
    dropped = np.setdiff1d(np.arange(coeffs.size), kept)
    # The kernel sums the bounds in another order: allow for its rounding.
    assert math.fsum(bounds[dropped]) <= UNIT_ROUNDOFF * size * (1 + 1e-12)
    assert np.all(bounds[dropped] <= bounds[kept].min(initial=np.inf))
    assert set(kept.tolist()) <= set(every.tolist())
    # Fewer levels change the summation order: a rounding of every term.
    allowance = 8 * (every.size + 1) * UNIT_ROUNDOFF * size
    assert np.max(np.abs(got - oracle)) <= UNIT_ROUNDOFF * size + allowance


@settings(max_examples=60, deadline=None)
@given(resolvable_problems(st.floats(0.0, 1.0)))
def test_levels_of_comparable_weight_are_all_phased(exact_zero_levels, problem):
    """Weights within a factor of about 10^4 of each other: the smallest
    nonzero bound is far above 2^-53 sum |M|, so only zero bounds go."""
    kind, energies, coeffs, op, times, block_entries = problem
    _, kept = kernel_run(energies, coeffs, op, times, block_entries)
    weights = np.abs(coeffs) ** 2 if op is None else dense_weights(coeffs, op)
    bounds = weights if op is None else weights.sum(axis=0) + weights.sum(axis=1)
    assert np.array_equal(kept, exact_zero_levels(bounds, None))


@pytest.mark.parametrize("levels", [1, 5, 40])
def test_diagonal_band_is_a_constant(levels):
    """The d = 0 band adds sum_i A_0,i (C_i^2 + S_i^2) = sum_i A_0,i, summed
    once: a diagonal-only operator gives that sum bit for bit at every
    sample, over several kernel blocks."""
    rng = np.random.default_rng(levels)
    energies = rng.uniform(-30.0, 30.0, levels)
    coeffs = rng.uniform(0.5, 1.0, levels) * np.exp(2j * np.pi * rng.random(levels))
    coeffs /= np.linalg.norm(coeffs)
    diagonal = rng.uniform(-2.0, 2.0, levels) + 0j
    times = np.linspace(0.0, 7e4, 5 * (64 // levels) + 3)
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", 64):
        vals = spectral.expectation_series(energies, coeffs, {0: diagonal}, times)
    constant = float(np.sum((np.conj(coeffs) * diagonal * coeffs).real))
    assert np.all(vals == constant)
    assert abs(constant - np.vdot(coeffs, diagonal * coeffs).real) <= 1e-15


# ------------------------------------------------------- chunked contraction


@st.composite
def chunked_problems(draw):
    """(energies, coeffs, op, times, width): a dense Hermitian op on 1 to 60
    levels, so 2L runs past the chunking cut-over, with every level kept
    (coefficient and entry moduli 0.5 to 1), and a block width of 1, c - 1,
    c, c + 1, or several chunks of c = _GEMM_SERIAL // (2L)^2 columns plus a
    remainder; the times fill one or two blocks and part of another."""
    n = draw(st.integers(1, 60))
    chunk = spectral._GEMM_SERIAL // (2 * n) ** 2
    several = st.builds(lambda k, r: k * chunk + r, st.integers(2, 4), st.integers(1, chunk - 1))
    width = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1]) | several)
    energies = draw(arrays(float, n, elements=st.floats(-50.0, 50.0)))
    modulus = draw(arrays(float, (n, n), elements=st.floats(0.5, 1.0)))
    phase = draw(arrays(float, (n, n), elements=st.floats(0.0, 2 * np.pi)))
    raw = modulus * np.exp(1j * phase)
    op = np.triu(raw, 1) + np.triu(raw, 1).conj().T + np.diag(modulus.diagonal())
    coeffs = np.diag(modulus) * np.exp(1j * np.diag(phase))
    coeffs /= np.linalg.norm(coeffs)
    samples = draw(st.integers(1, 2)) * width + draw(st.integers(1, width))
    times = draw(st.floats(0.0, 1e3)) + draw(st.floats(1e-3, 1.0)) * np.arange(samples)
    return energies, coeffs, op, times, width


@settings(max_examples=60, deadline=None)
@given(chunked_problems())
def test_chunked_contraction_matches_one_product(single_product, problem):
    energies, coeffs, op, times, width = problem
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", coeffs.size * width):
        got = spectral.expectation_series(energies, coeffs, op, times)
        with mock.patch.object(spectral, "_contract", single_product):
            oracle = spectral.expectation_series(energies, coeffs, op, times)
    size = math.fsum(dense_weights(coeffs, op).ravel())
    # Both sides sum each value of 2L^2 terms in an order of their own.
    assert np.max(np.abs(got - oracle)) <= 4 * 2 * coeffs.size * UNIT_ROUNDOFF * size


# ---------------------------------------------------------- Hermiticity check


def test_non_hermitian_operator_rejected_for_every_system(morse_basis):
    times = np.linspace(0.0, 3.0, 50)

    kerr_state = coherent_state(2.0)
    lowering = np.eye(kerr_state.cutoff + 1, k=1) * np.sqrt(
        np.arange(kerr_state.cutoff + 1)
    )
    with pytest.raises(NumericalContractError, match="imaginary residue"):
        spectral.expectation_series(
            level_phases(KERR, kerr_state.cutoff),
            kerr_state.amplitudes,
            {1: np.diagonal(lowering, 1)},
            times,
        )

    ops = build_bjj(BJJParams.from_u(10, 5.0))
    energies, vectors = ops.eigensystem()
    raising = vectors.conj().T @ (ops.lx + 1j * ops.ly) @ vectors
    modes = vectors.conj().T @ su2_coherent(1.0, 0.7, 10).amplitudes
    with pytest.raises(NumericalContractError, match="imaginary residue"):
        spectral.expectation_series(energies, modes, raising, times)

    state = superpose_morse(0.4, 2, morse_basis)
    upper = np.triu(position_matrix(morse_basis))
    with pytest.raises(NumericalContractError, match="imaginary residue"):
        spectral.expectation_series(morse_basis.energies, state.coeffs, upper, times)


# ----------------------------------------------------------- norm gate


def _scaled_series(system, observable, morse_basis, scale):
    """A short series of `observable` from a state whose norm is `scale`."""
    plan = SamplingPlan(0.0, 0.05, 40)
    if system == "kerr":
        state = FockVector(scale * coherent_state(2.0).amplitudes)
        return kerr_series(state, KERR, plan, observable)
    if system == "bjj":
        state = SpinState(scale * make_initial("even", 10).amplitudes)
        return bloch_series(state, build_bjj(BJJParams.from_u(10, 5.0)), plan, observable)
    state = MorseState(scale * superpose_morse(0.4, 2, morse_basis).coeffs, morse_basis)
    return morse_moments_series(state, plan, observable)


@pytest.mark.parametrize("system, observable", [
    ("kerr", "x^2"), ("kerr", "p"), ("kerr", "fidelity"),
    ("morse", "x"), ("morse", "p"), ("morse", "autocorrelation"), ("morse", "survival"),
    ("bjj", "lx"), ("bjj", "ly"), ("bjj", "lz"),
])
def test_unnormalized_state_fails_the_one_norm_gate(morse_basis, system, observable):
    """Every series is checked by `spectral.sample` against spectral.NORM_TOL:
    a 1e-9 excess fails it, and the same state passes once the tolerance
    there is widened, so no other norm check sits on the path."""
    scale = np.sqrt(1.0 + 1e-9)
    with pytest.raises(NormalizationError, match="series requires a normalized state"):
        _scaled_series(system, observable, morse_basis, scale)
    with mock.patch.object(spectral, "NORM_TOL", 1e-8):
        assert len(_scaled_series(system, observable, morse_basis, scale)) == 40


# ------------------------------------------------------- generated properties


@st.composite
def spectral_problems(draw):
    n = draw(st.integers(1, 8))
    finite = st.floats(-3.0, 3.0, allow_nan=False)
    energies = draw(arrays(float, n, elements=st.floats(-50.0, 50.0)))
    coeffs = draw(arrays(float, n, elements=finite)) + 1j * draw(
        arrays(float, n, elements=finite)
    )
    norm = np.linalg.norm(coeffs)
    if norm < 1e-3:
        coeffs = np.zeros(n, dtype=complex)
        coeffs[0] = 1.0
    else:
        coeffs = coeffs / norm
    # Empty levels, up to all of them, are dropped by the kernel; a banded
    # operator is restricted to the rest.
    coeffs[draw(arrays(bool, n))] = 0.0
    raw = draw(arrays(float, (n, n), elements=finite)) + 1j * draw(
        arrays(float, (n, n), elements=finite)
    )
    op = 0.5 * (raw + raw.conj().T)
    # Zero every diagonal past a drawn half-width, so banded operators are sparse.
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    op[np.abs(offset) > draw(st.integers(0, n - 1))] = 0.0
    times = draw(arrays(float, st.integers(1, 120), elements=st.floats(0.0, 1e3)))
    block_entries = draw(st.integers(1, 64))
    banded = draw(st.booleans())
    return energies, coeffs, op, times, block_entries, banded


@settings(max_examples=60, deadline=None)
@given(spectral_problems())
def test_kernel_equals_per_time_contraction(problem):
    energies, coeffs, op, times, block_entries, banded = problem
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", block_entries):
        got = spectral.expectation_series(
            energies, coeffs, as_banded(op) if banded else op, times
        )
        survival = spectral.survival_amplitude(energies, np.abs(coeffs) ** 2, times)
    for k, t in enumerate(times):
        c = coeffs * np.exp(-1j * energies * t)
        assert abs(got[k] - np.vdot(c, op @ c).real) < 1e-9
        assert abs(survival[k] - np.vdot(coeffs, c)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    arrays(float, st.integers(1, 40), elements=st.floats(-1e3, 1e3)),
    st.data(),
)
def test_survival_at_zero_is_total_population(energies, data):
    populations = data.draw(
        arrays(float, energies.size, elements=st.floats(0.0, 1.0))
    )
    amp = spectral.survival_amplitude(energies, populations, np.zeros(3))
    assert_allclose(amp, np.sum(populations), rtol=1e-14, atol=1e-15)


def kernel_phases(energies, times):
    """Every block _phase_blocks yields, as cos + i(-sin), in one (levels, times) grid."""
    levels = energies.size
    grid = np.empty((levels, times.size), dtype=complex)
    for blk, block in spectral._phase_blocks(energies, times):
        grid[:, blk] = block[:levels] + 1j * block[levels:]
    return grid


@settings(max_examples=100, deadline=None)
@given(
    arrays(float, st.integers(1, 12), elements=st.floats(-1e6, 1e6)),
    arrays(float, st.integers(1, 60), elements=st.floats(-1e6, 1e6)),
    st.integers(1, 64),
)
def test_phases_match_exp_up_to_1e12_rad(energies, times, block_entries):
    times = np.append(times, 0.0)
    x = np.multiply.outer(energies, times)
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", block_entries):
        got = kernel_phases(energies, times)
    assert np.max(np.abs(got - np.exp(-1j * x))) <= 1e-15
    assert np.all(got[x == 0] == 1 + 0j)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**11, 10**11))
def test_phases_finite_at_and_next_to_odd_multiples_of_pi(k):
    centre = (2 * k + 1) * np.pi
    energies = np.array([np.nextafter(centre, -np.inf), centre, np.nextafter(centre, np.inf)])
    times = np.array([1.0, -1.0, 0.5])
    got = kernel_phases(energies, times)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - np.exp(-1j * np.multiply.outer(energies, times)))) <= 1e-15


def tan_arguments(energies, times):
    """The (levels, times) grid of arguments _phase_blocks hands to np.tan."""
    seen = []
    real_tan = np.tan

    def recording_tan(x, out=None):
        seen.append(x.copy())
        return real_tan(x, out=out)

    with mock.patch.object(np, "tan", recording_tan):
        for _ in spectral._phase_blocks(energies, times):
            pass
    return np.concatenate(seen, axis=1)


@settings(max_examples=100, deadline=None)
@given(
    arrays(float, st.integers(1, 12), elements=st.floats(-1e4, 1e4)),
    arrays(float, st.integers(1, 60), elements=st.floats(-1e3, 1e3)),
    st.integers(1, 64),
)
def test_reduced_phases_match_exp_up_to_1e7_rad(energies, times, block_entries):
    """|E t| <= 1e7 keeps every level under the limit, so every phase is reduced."""
    times = np.append(times, 0.0)
    x = np.multiply.outer(energies, times)
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", block_entries):
        got = kernel_phases(energies, times)
        args = tan_arguments(energies, times)
    assert np.max(np.abs(got - np.exp(-1j * x))) <= 1e-15
    assert np.all(got[x == 0] == 1 + 0j)
    # |k| <= 1.6e6 here, so the quotient's rounding adds under 7.5e-10.
    assert np.max(np.abs(args)) <= np.pi / 2 + 1e-9


#: The reduction limit on |E/2| max|t| / pi: k * P1 is exact up to here.
REDUCTION_LIMIT = 2.0**24

#: Levels at |E/2| max|t| / pi = REDUCTION_LIMIT * (these factors), times up to 1.
LIMIT_FACTORS = (1.0 - 2.0**-20, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 1.5, 2.0 - 2.0**-20,
                 2.0, 4.0 - 2.0**-20)


def test_phases_either_side_of_the_reduction_limit():
    factors = np.array(LIMIT_FACTORS)
    energies = 2.0 * np.pi * REDUCTION_LIMIT * factors
    energies = np.concatenate([energies, -energies])
    # Dense times near max|t| = 1 give many large, odd and even k.
    times = np.concatenate([np.linspace(0.5, 1.0, 3001), -np.linspace(0.0, 0.25, 40)])
    x = np.multiply.outer(energies, times)
    got = kernel_phases(energies, times)
    assert np.max(np.abs(got - np.exp(-1j * x))) <= 1e-15

    args = tan_arguments(energies, times)
    reduced = np.abs(0.5 * energies) < REDUCTION_LIMIT * np.pi  # max|t| is 1
    assert reduced.sum() == 4
    # |k| <= 2^24: the quotient's rounding adds at most 2^24 * 4.7e-16 < 1e-8.
    assert np.max(np.abs(args[reduced])) <= np.pi / 2 + 1e-8
    assert np.array_equal(args[~reduced], np.multiply.outer(0.5 * energies, times)[~reduced])
