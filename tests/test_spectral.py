"""The shared spectral kernel against direct single-time evolution.

Oracles:
  - each model's single-time path (evolve_kerr, evolve_bjj, evolve_morse
    followed by a plain contraction), sampled at t ~ 1e5 .. 1e6 where
    E t reaches 1e7 rad or more, over enough samples to cross several
    kernel blocks;
  - a per-time vdot(c(t), op @ c(t)) on generated spectra, coefficients
    and Hermitian operators;
  - the survival amplitude at t = 0 is the total population;
  - a level with zero weight contributes nothing, so the energy it is
    given (NaN included) cannot change the series.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy import sparse

from qnldyn import spectral
from qnldyn.bjj import (
    BJJParams,
    bloch_series,
    build_bjj,
    evolve_bjj,
    make_initial,
    su2_coherent,
)
from qnldyn.errors import NumericalContractError
from qnldyn.fock import coherent_state, inner, quadrature_moment, superpose_coherent
from qnldyn.kerr import KerrParams, evolve_kerr, kerr_series, level_phases
from qnldyn.morse import (
    evolve_morse,
    morse_autocorrelation,
    morse_moments_series,
    position_matrix,
    superpose_morse,
)
from qnldyn.series import SamplingPlan


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
    via_sparse = spectral.expectation_series(
        energies, coeffs, sparse.csr_array(op), times
    )
    survival = spectral.survival_amplitude(energies, np.abs(coeffs) ** 2, times)
    occupied = [0, 2, 4]
    kept = spectral.expectation_series(
        energies[occupied], coeffs[occupied], op[np.ix_(occupied, occupied)], times
    )
    assert np.all(np.isfinite(via_dense)) and np.all(np.isfinite(survival))
    assert np.array_equal(via_dense, kept)
    assert np.array_equal(via_sparse, kept)
    assert_allclose(survival[0], 1.0, rtol=1e-15)


@pytest.mark.parametrize("levels", [0, 1, 6])
def test_all_zero_weights_give_zero_series(levels):
    energies = np.linspace(-2.0, 3.0, levels)
    times = np.linspace(0.0, 5.0, 7)
    for op in (np.eye(levels), sparse.csr_array(np.eye(levels))):
        vals = spectral.expectation_series(energies, np.zeros(levels), op, times)
        assert np.array_equal(vals, np.zeros(7))
    amp = spectral.survival_amplitude(energies, np.zeros(levels), times)
    assert np.array_equal(amp, np.zeros(7, dtype=complex))


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
            sparse.csr_array(lowering),
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
    # Empty levels, up to all of them, are dropped by the kernel.
    coeffs[draw(arrays(bool, n))] = 0.0
    raw = draw(arrays(float, (n, n), elements=finite)) + 1j * draw(
        arrays(float, (n, n), elements=finite)
    )
    op = 0.5 * (raw + raw.conj().T)
    times = draw(arrays(float, st.integers(1, 120), elements=st.floats(0.0, 1e3)))
    block_entries = draw(st.integers(1, 64))
    as_sparse = draw(st.booleans())
    return energies, coeffs, op, times, block_entries, as_sparse


@settings(max_examples=60, deadline=None)
@given(spectral_problems())
def test_kernel_equals_per_time_contraction(problem):
    energies, coeffs, op, times, block_entries, as_sparse = problem
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", block_entries):
        got = spectral.expectation_series(
            energies, coeffs, sparse.csr_array(op) if as_sparse else op, times
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
