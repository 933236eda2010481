"""Anharmonic bound-state basis, displaced wavepackets, revival times.

Independent oracles:
  - a three-point finite-difference diagonalization of the same potential
    on refined grids; Richardson extrapolation in the step cancels the
    O(dx^2) error, and level spacings (zero-point offset removed) must
    match the analytic spectrum;
  - the quadratic spectrum itself: E_n - E_0 = omega n - a n^2 with
    omega = 2 a (lam - 1/2) and a = hbar beta^2 / (2 mu r0^2);
  - exact phase alignment at t = 4 pi for the default parameter set,
    whose level number lam - 1/2 = 21 is an integer;
  - for momentum, -i hbar d/dx taken on the sampled states by a
    second-order finite difference, whose O(dx^2) error must shrink 4x per
    grid doubling towards the spectral form.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_genlaguerre

from qnldyn.errors import GridResolutionError
from qnldyn.morse import (
    MORSE_PRESETS,
    MorseParams,
    _laguerre,
    _trapezoid_weights,
    build_eigenbasis,
    cached_eigenbasis,
    default_grid,
    evolve_morse,
    morse_autocorrelation,
    morse_moments_series,
    morse_revival_period,
    orthonormality_residue,
    perelomov_state,
    position_matrix,
    momentum_matrix,
    superpose_morse,
)
from qnldyn.series import SamplingPlan

PRESET = MORSE_PRESETS["default"]


def fd_level_spacings(params, grid, n_points):
    """Bound spectrum of -1/2 psi'' + D(1 - e^{-beta(x-r0)})^2 psi, E_0 removed."""
    g = np.linspace(grid[0], grid[-1], n_points)
    dx = g[1] - g[0]
    potential = params.D * (1.0 - np.exp(-params.beta * (g - params.r0))) ** 2
    energies, _ = eigh_tridiagonal(
        1.0 / dx**2 + potential,
        np.full(n_points - 1, -0.5 / dx**2),
        select="i",
        select_range=(0, params.n_max),
    )
    return energies - energies[0]


def test_preset_ladder_shape():
    assert_allclose(PRESET.lam, 21.5, atol=0.0)
    assert PRESET.n_max == 20
    assert PRESET.n_max % 2 == 0  # two-component superpositions need this
    assert_allclose(PRESET.anharmonicity, 0.5, atol=0.0)
    assert_allclose(PRESET.omega_e, 21.5, atol=1e-14)
    assert_allclose(PRESET.x_e, 1.0 / 43.0, atol=1e-16)
    assert PRESET.period_denominator == 1


def test_threshold_level_is_excluded():
    # lam - 1/2 integer: the state at that index is not normalizable
    params = MorseParams(D=231.125, beta=1.0, mu=1.0)
    assert params.level_number == 21.0
    assert params.n_max == 20
    # slightly deeper well: the extra level becomes bound, and the now
    # irrational level number triggers the approximate-revival warning
    with pytest.warns(UserWarning, match="not close to a small rational"):
        deeper = MorseParams(D=233.0, beta=1.0, mu=1.0)
    assert deeper.n_max == 21


def test_threshold_level_excluded_when_level_number_rounds_up(morse_basis):
    """lam = 5/2 computed from D, beta and mu lands one ulp above the integer
    level number 2; the threshold state stays out and the basis builds."""
    params = MorseParams(D=(2.5 * 0.75) ** 2 / (2 * 1.75), beta=0.75, mu=1.75)
    assert params.level_number > 2.0
    assert params.n_max == 1
    assert build_eigenbasis(params).n_states == 2
    assert morse_basis.n_states == 21


@settings(max_examples=50, deadline=None)
@given(level=st.integers(2, 29), beta=st.floats(0.5, 2.0), mu=st.floats(0.5, 2.0))
def test_integer_level_number_excludes_threshold_for_generated_wells(level, beta, mu):
    """lam = level + 1/2 from generated beta and mu: lam - 1/2 lands on the
    integer or a few ulps to either side, and the threshold state is never
    counted as bound."""
    lam = level + 0.5
    params = MorseParams(D=(lam * beta) ** 2 / (2.0 * mu), beta=beta, mu=mu)
    assert params.n_max == level - 1
    assert build_eigenbasis(params).n_states == level


def test_bound_energies_quadratic_in_n():
    energies = PRESET.bound_energies()
    n = np.arange(energies.size, dtype=float)
    assert_allclose(energies, 21.0 * n - 0.5 * n**2, atol=1e-10)
    assert energies[0] == 0.0


def test_spectrum_against_finite_difference(morse_basis):
    analytic = morse_basis.energies - morse_basis.energies[0]
    e12 = fd_level_spacings(PRESET, morse_basis.grid, 12000)
    e24 = fd_level_spacings(PRESET, morse_basis.grid, 24000)
    richardson = (4.0 * e24 - e12) / 3.0
    assert np.max(np.abs(richardson - analytic)) < 1e-5


def test_eigenbasis_orthonormal(morse_basis):
    assert orthonormality_residue(morse_basis) < 1e-10


def test_laguerre_recurrence_matches_scipy():
    """L_n^s(xi) of every bound level on the default grid, times the state's
    envelope e^{-xi/2} xi^{s/2}, against scipy's eval_genlaguerre."""
    lam = PRESET.lam
    xi = 2.0 * lam * np.exp(-PRESET.beta * default_grid(PRESET))
    for n in range(PRESET.n_max + 1):
        s = 2.0 * (lam - n) - 1.0
        envelope = np.exp(-0.5 * xi + 0.5 * s * np.log(xi))
        reference = envelope * eval_genlaguerre(n, s, xi)
        gap = np.max(np.abs(envelope * _laguerre(n, s, xi) - reference))
        assert gap <= 1e-13 * np.max(np.abs(reference)), n


def test_coarse_grid_is_rejected():
    with pytest.raises(GridResolutionError):
        build_eigenbasis(PRESET, default_grid(PRESET, 200))


def test_grid_validation():
    with pytest.raises(ValueError):
        build_eigenbasis(PRESET, np.array([0.0, 1.0, 3.0, 4.0] * 5))  # non-uniform
    with pytest.raises(ValueError):
        build_eigenbasis(PRESET, np.linspace(-1.0, 10.0, 8))  # too short


def test_position_matrix_symmetric(morse_basis):
    x = position_matrix(morse_basis)
    assert_allclose(x, x.T, atol=1e-12)


def test_momentum_matrix_hermitian(morse_basis):
    p = momentum_matrix(morse_basis)
    assert_allclose(p, p.conj().T, atol=1e-12)


def grid_derivative_momentum(params, n_points):
    """-i hbar <m|d/dx|n> by trapezoid quadrature of a central-difference
    derivative, antisymmetrized: the grid form momentum_matrix replaced."""
    basis = build_eigenbasis(params, default_grid(params, n_points))
    w = _trapezoid_weights(basis.grid)
    dpsi = np.gradient(basis.psi, basis.grid[1] - basis.grid[0], axis=1, edge_order=2)
    raw = (basis.psi * w) @ dpsi.T
    return -1j * params.hbar * 0.5 * (raw - raw.T)


def _well(lam, beta, mu, r0=1.0, hbar=1.0):
    """Parameters with level-number parameter lam."""
    return MorseParams(D=(lam * beta * hbar / r0) ** 2 / (2.0 * mu), beta=beta, mu=mu,
                       r0=r0, hbar=hbar)


@pytest.mark.parametrize("params", [PRESET, _well(13.75, 1.0, 0.75, r0=2.0, hbar=1.5)],
                         ids=["default", "scaled"])
def test_grid_derivative_momentum_converges_to_spectral_form(params):
    """The finite-difference p approaches i mu r0^2 (E_m - E_n) x_mn / hbar
    at 4x per grid doubling over 3000, 6000 and 12000 points, which checks
    the mu, r0 and hbar factors as well as the identity."""
    exact = momentum_matrix(build_eigenbasis(params))
    errors = [np.max(np.abs(grid_derivative_momentum(params, n) - exact))
              for n in (3000, 6000, 12000)]
    assert errors[-1] < 1e-2 * np.max(np.abs(exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


@settings(max_examples=20, deadline=None)
@given(
    level=st.integers(2, 24),
    quarter=st.integers(1, 3),
    beta=st.floats(0.5, 2.0),
    mu=st.floats(0.5, 2.0),
    r0=st.floats(0.5, 2.0),
    hbar=st.floats(0.5, 2.0),
)
def test_momentum_matrix_exactly_hermitian_for_generated_wells(level, quarter, beta, mu,
                                                               r0, hbar):
    """Wells with lam = level + 1/2 + quarter/4: p equals its conjugate
    transpose bit for bit, its real part is exactly 0 and so is its diagonal."""
    basis = build_eigenbasis(_well(level + 0.5 + quarter / 4.0, beta, mu, r0, hbar))
    p = momentum_matrix(basis)
    assert p.dtype == np.complex128
    assert np.array_equal(p, p.conj().T)
    assert np.all(p.real == 0.0)
    assert np.all(np.diag(p) == 0.0)


def test_perelomov_zero_displacement_is_top_level(morse_basis):
    state = perelomov_state(0.0, morse_basis)
    expected = np.zeros(PRESET.n_max + 1, dtype=complex)
    expected[PRESET.n_max] = 1.0
    assert_allclose(state.coeffs, expected, atol=0.0)


def test_perelomov_normalized(morse_basis):
    for alpha in (0.2, 0.4, 1.0, 2.0):
        state = perelomov_state(alpha, morse_basis)
        assert_allclose(state.norm(), 1.0, atol=1e-12)


def test_superposition_support_masked_exactly(morse_basis):
    n = np.arange(PRESET.n_max + 1)
    for ell in (2, 4):
        state = superpose_morse(0.4, ell, morse_basis)
        off = state.coeffs[(PRESET.n_max - n) % ell != 0]
        assert np.all(off == 0.0)
        assert_allclose(state.norm(), 1.0, atol=1e-12)


def test_superposition_keeps_single_packet_ratios(morse_basis):
    single = perelomov_state(0.4, morse_basis)
    double = superpose_morse(0.4, 2, morse_basis)
    keep = np.nonzero(double.coeffs)[0]
    ratios = double.coeffs[keep] / single.coeffs[keep]
    assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_two_component_needs_even_top_level(morse_basis):
    with pytest.raises(ValueError):
        superpose_morse(0.4, 2, morse_basis, n_prime=19)


def test_revival_period_values():
    base = morse_revival_period(1, PRESET)
    assert_allclose(base, 4.0 * np.pi, atol=1e-14)
    assert_allclose(morse_revival_period(2, PRESET), np.pi, atol=1e-14)
    assert_allclose(morse_revival_period(3, PRESET), 2.0 * np.pi / 3.0, atol=1e-14)


def test_wavepacket_revives_exactly(morse_basis):
    state = perelomov_state(0.4, morse_basis)
    period = morse_revival_period(1, PRESET)
    assert abs(morse_autocorrelation(state, period)) > 1.0 - 1e-10
    # between revivals the packet is genuinely spread out
    probes = np.linspace(0.3, 6.0, 37)
    assert np.max(np.abs(morse_autocorrelation(state, probes))) < 0.95


def test_two_component_revives_at_quarter_period(morse_basis):
    state = superpose_morse(0.4, 2, morse_basis)
    quarter = morse_revival_period(1, PRESET) / 4.0
    assert abs(morse_autocorrelation(state, quarter)) > 1.0 - 1e-10
    assert_allclose(morse_revival_period(2, PRESET), quarter, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    level=st.integers(2, 24),
    quarter=st.integers(1, 3),
    beta=st.floats(0.5, 2.0),
    mu=st.floats(0.5, 2.0),
    n_points=st.integers(3000, 6000),
)
def test_position_matrix_hermitian_for_generated_wells(level, quarter, beta, mu, n_points):
    """Wells with lam = level + 1/2 + quarter/4 (a rational level number, so
    no approximate-revival warning).  The quadrature before symmetrization is
    symmetric to 1e-13 of its largest entry, and the returned operator is
    real and exactly symmetric, hence Hermitian."""
    lam = level + 0.5 + quarter / 4.0
    params = MorseParams(D=(lam * beta) ** 2 / (2.0 * mu), beta=beta, mu=mu)
    basis = build_eigenbasis(params, default_grid(params, n_points))
    w = _trapezoid_weights(basis.grid)
    raw = (basis.psi * (w * basis.grid)) @ basis.psi.T
    assert np.max(np.abs(raw - raw.T)) <= 1e-13 * np.max(np.abs(raw))
    x = position_matrix(basis)
    assert x.dtype == np.float64
    assert np.array_equal(x, x.T)


@settings(max_examples=60, deadline=None)
@given(
    radius=st.floats(0.0, 1.5),
    angle=st.floats(-np.pi, np.pi),
    ell=st.integers(1, 4),
    t=st.floats(-200.0, 200.0),
)
def test_evolution_preserves_norm_for_generated_packets(morse_basis, radius, angle, ell, t):
    """Unitarity for |alpha| <= 1.5, ell <= 4 and |t| <= 200 on the default
    well: the norm moves by at most 1e-12."""
    state = superpose_morse(radius * np.exp(1j * angle), ell, morse_basis)
    assert abs(evolve_morse(state, t).norm() - 1.0) <= 1e-12


def test_evolution_preserves_norm_and_energy(morse_basis):
    state = perelomov_state(0.7, morse_basis)
    energy0 = float(np.sum(np.abs(state.coeffs) ** 2 * morse_basis.energies))
    for t in (0.9, 42.0, 1234.5):
        moved = evolve_morse(state, t)
        assert_allclose(moved.norm(), 1.0, atol=1e-12)
        energy = float(np.sum(np.abs(moved.coeffs) ** 2 * morse_basis.energies))
        assert abs(energy - energy0) < 1e-10


def test_moment_series_matches_pointwise_expectation(morse_basis):
    state = perelomov_state(0.4, morse_basis)
    plan = SamplingPlan(0.0, 0.17, 12)
    x_op = position_matrix(morse_basis)
    series = morse_moments_series(state, plan, "x")
    for k, t in enumerate(plan.times()):
        c = evolve_morse(state, t).coeffs
        assert_allclose(series.values[k], (c.conj() @ x_op @ c).real, atol=1e-12)


def test_observable_name_ignores_case_and_blanks(morse_basis):
    state = perelomov_state(0.4, morse_basis)
    plan = SamplingPlan(0.0, 0.17, 12)
    for name, spelled in (("x", " X "), ("p", "P"), ("survival", "Survival")):
        series = morse_moments_series(state, plan, spelled)
        assert_allclose(series.values, morse_moments_series(state, plan, name).values,
                        rtol=0.0, atol=0.0)
    with pytest.raises(ValueError, match="morse observable"):
        morse_moments_series(state, plan, "q")


def test_moment_curves_close_after_one_period(morse_basis):
    state = perelomov_state(0.4, morse_basis)
    period = morse_revival_period(1, PRESET)
    n_samples = 801
    plan = SamplingPlan(0.0, period / (n_samples - 1), n_samples)
    for observable in ("x", "p"):
        series = morse_moments_series(state, plan, observable)
        assert abs(series.values[-1] - series.values[0]) < 1e-6


def test_autocorrelation_array_matches_scalars(morse_basis):
    state = perelomov_state(0.5, morse_basis)
    times = np.array([0.0, 0.31, 1.7])
    arr = morse_autocorrelation(state, times)
    for k, t in enumerate(times):
        assert_allclose(arr[k], morse_autocorrelation(state, float(t)), atol=1e-14)


def test_cached_eigenbasis_round_trip(tmp_path):
    cache = str(tmp_path)
    first = cached_eigenbasis(PRESET, cache_dir=cache)
    files = os.listdir(cache)
    assert len(files) == 1
    second = cached_eigenbasis(PRESET, cache_dir=cache)
    assert_allclose(second.energies, first.energies, atol=0.0)
    assert_allclose(second.grid, first.grid, atol=0.0)
    assert_allclose(second.psi, first.psi, atol=0.0)
    assert os.listdir(cache) == files  # second call reused the stored basis


def test_params_validation():
    with pytest.raises(ValueError):
        MorseParams(D=-1.0, beta=1.0, mu=1.0)
    with pytest.raises(ValueError):
        MorseParams(D=0.05, beta=1.0, mu=1.0)  # too shallow for a bound state
    with pytest.raises(ValueError):
        morse_revival_period(0, PRESET)
    with pytest.raises(ValueError):
        perelomov_state(0.4, build_eigenbasis(PRESET, default_grid(PRESET, 1000)), n_prime=30)
