"""Two-mode spin model: operator algebra, coherent states, spectral evolution.

Independent oracles:
  - su(2) commutation relations and the Casimir l(l+1) fix the operator
    set up to basis convention;
  - spin coherent-state expectations <L_z> = -(N/2) cos(theta) (index 0
    is m = -l) and <L_x> = (N/2) sin(theta) cos(phi);
  - direct integration of i d(psi)/dt = H psi with an eighth-order
    adaptive Runge-Kutta at tight tolerance, compared amplitude by
    amplitude against the eigendecomposition propagator;
  - the mirror i <-> N - i commutes with H, so every eigenvector of the
    parity-sector solve has parity +-1 exactly, and the series match one
    complex eigh of the whole H (conftest's full_eigh_series);
  - L_y and L_z anticommute with the mirror, so their expectations in the
    mirror-symmetric `even` and `pi` states vanish.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from qnldyn.bjj import (
    BJJParams,
    SpinState,
    bloch_series,
    build_bjj,
    evolve_bjj,
    make_initial,
    su2_coherent,
)
from qnldyn.series import SamplingPlan


def bloch_expectation(state, ops, name):
    v = state.amplitudes
    return float((v.conj() @ ops.operator(name) @ v).real)


def test_commutation_relations():
    ops = build_bjj(BJJParams.from_u(10, 50.0))
    lx, ly, lz = ops.lx, ops.ly, ops.lz
    assert_allclose(lx @ ly - ly @ lx, 1j * lz, atol=1e-12)
    assert_allclose(ly @ lz - lz @ ly, 1j * lx, atol=1e-12)
    assert_allclose(lz @ lx - lx @ lz, 1j * ly, atol=1e-12)


def test_casimir_is_maximal():
    n = 10
    ops = build_bjj(BJJParams.from_u(n, 50.0))
    l = n / 2.0
    total = ops.lx @ ops.lx + ops.ly @ ops.ly + ops.lz @ ops.lz
    assert_allclose(total, l * (l + 1.0) * np.eye(n + 1), atol=1e-12)


def test_eigensystem_reconstructs_hamiltonian():
    ops = build_bjj(BJJParams.from_u(16, 30.0))
    energies, vectors = ops.eigensystem()
    rebuilt = vectors @ np.diag(energies) @ vectors.conj().T
    assert_allclose(rebuilt, ops.hamiltonian, atol=1e-10)


@pytest.mark.parametrize("u", [50.0, 90.0])
def test_eigensystem_residual_and_orthogonality_at_forty_atoms(u):
    """The figure runs' 41 levels: max|HV - VE| reads 1.7e-13 (u = 50) and
    3.4e-13 (u = 90), max|V^T V - I| 2.9e-15, with numpy 2.4."""
    ops = build_bjj(BJJParams.from_u(40, u))
    energies, vectors = ops.eigensystem()
    assert np.max(np.abs(ops.hamiltonian @ vectors - vectors * energies)) <= 1e-11
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(41))) <= 1e-13


#: The unit roundoff, the scale of every eigensystem residual below.
UNIT_ROUNDOFF = 2.0**-53


@settings(max_examples=80, deadline=None)
@given(n_atoms=st.integers(2, 60), u=st.floats(1.5, 200.0), J=st.floats(0.5, 2.0))
def test_parity_eigensystem(n_atoms, u, J):
    """Ascending energies; max column sums of |HV - VE| and |V^T V - I| within
    8 (N + 1) unit roundoffs, the residual relative to ||H||_1 (the largest
    readings over 3000 draws were 1.2 and 2.1 times (N + 1)); and every
    eigenvector v of parity +-1 exactly: v reversed is v or -v."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # u past N^2 at small N
        ops = build_bjj(BJJParams(n_atoms, J=J, U=u * J / n_atoms))
    energies, vectors = ops.eigensystem()
    h, dim = ops.hamiltonian, n_atoms + 1
    assert h.dtype == vectors.dtype == np.float64
    assert np.all(np.diff(energies) >= 0.0)
    allowance = 8 * dim * UNIT_ROUNDOFF
    scale = np.abs(h).sum(axis=0).max()
    assert np.abs(h @ vectors - vectors * energies).sum(axis=0).max() <= allowance * scale
    assert np.abs(vectors.T @ vectors - np.eye(dim)).sum(axis=0).max() <= allowance
    mirrored = vectors[::-1]
    assert np.all((mirrored == vectors).all(axis=0) | (mirrored == -vectors).all(axis=0))


#: The bench's and fig11's problem.
BENCH_OPS = build_bjj(BJJParams.from_u(40, 50.0))


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(-np.pi, np.pi))
def test_series_match_one_complex_eigh(full_eigh_series, theta, phi):
    """L_x, L_y and L_z over 2000 samples to t = 4997.5 at N = 40, u = 50, on
    `even`, `pi` and a drawn coherent state (complex amplitudes in both
    sectors), within 1e-9 of the series through one complex eigh.  Each
    path's energies carry their own rounding, so the two drift apart
    linearly in t: over a 41 x 21 grid of (theta, phi) the largest gap was
    6.3e-10.  The oracle's energies are the less accurate, 12 ulp
    of max|E| off a 40-digit reference, the sector solve's 4.  Both paths'
    <L_x> are within 2.1e-10 of that reference at 40 times on 14 states."""
    plan = SamplingPlan(0.0, 2.5, 2000)
    for state in (make_initial("even", 40), make_initial("pi", 40), su2_coherent(theta, phi, 40)):
        for name in ("lx", "ly", "lz"):
            got = bloch_series(state, BENCH_OPS, plan, observable=name).values
            want = full_eigh_series(state, BENCH_OPS, plan, name)
            assert np.max(np.abs(got - want)) <= 1e-9, name


@pytest.mark.parametrize("kind", ["even", "pi"])
def test_mirror_odd_observables_vanish(kind):
    """P L_y P = -L_y and P L_z P = -L_z, and the `even` and `pi` states are
    mirror-symmetric: <L_y> and <L_z> are 0 at every t.  The sector solve
    keeps them at rounding (3.6e-17 at most here); one complex eigh of H read
    up to 3.1e-12, from parity mixed across near-degenerate doublets."""
    ops = build_bjj(BJJParams.from_u(40, 90.0))
    plan = SamplingPlan(0.0, 0.02, 20000)
    for name in ("ly", "lz"):
        values = bloch_series(make_initial(kind, 40), ops, plan, observable=name).values
        assert np.max(np.abs(values)) <= 1e-15, name


def test_coherent_state_expectations():
    n = 12
    ops = build_bjj(BJJParams.from_u(n, 50.0))
    for theta, phi in ((0.3, 0.0), (np.pi / 2, 0.0), (2.0, 1.3)):
        state = su2_coherent(theta, phi, n)
        assert_allclose(state.norm(), 1.0, atol=1e-12)
        assert_allclose(
            bloch_expectation(state, ops, "lz"), -n / 2.0 * np.cos(theta), atol=1e-10
        )
        assert_allclose(
            bloch_expectation(state, ops, "lx"),
            n / 2.0 * np.sin(theta) * np.cos(phi),
            atol=1e-10,
        )


def test_pole_states_are_basis_vectors():
    n = 8
    south = su2_coherent(0.0, 0.0, n)
    expected = np.zeros(n + 1)
    expected[0] = 1.0
    assert_allclose(south.amplitudes, expected, atol=0.0)
    north = su2_coherent(np.pi, 0.7, n)
    expected = np.zeros(n + 1)
    expected[-1] = 1.0
    assert_allclose(north.amplitudes, expected, atol=0.0)
    # theta / 2 underflows to 0: the south pole, not NaN amplitudes.
    assert np.array_equal(su2_coherent(5e-324, 0.0, n).amplitudes, south.amplitudes)


def test_named_states():
    n = 40
    ops = build_bjj(BJJParams.from_u(n, 50.0))
    pi_state = make_initial("pi", n)
    assert_allclose(bloch_expectation(pi_state, ops, "lx"), -n / 2.0, atol=1e-10)
    even = make_initial("even", n)
    assert_allclose(even.norm(), 1.0, atol=1e-12)
    assert np.all(even.amplitudes[1::2] == 0.0)  # exact parity selection
    assert_allclose(bloch_expectation(even, ops, "lx"), 0.0, atol=1e-10)


def test_equatorial_components_exactly_orthogonal():
    n = 20
    a = su2_coherent(np.pi / 2, 0.0, n)
    b = su2_coherent(np.pi / 2, np.pi, n)
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    assert abs(overlap) < 1e-15


def test_from_u_round_trip():
    params = BJJParams.from_u(40, 90.0, J=2.0)
    assert_allclose(params.u, 90.0, atol=1e-12)
    assert_allclose(params.U, 90.0 * 2.0 / 40.0, atol=1e-14)


def test_outside_josephson_window_warns():
    with pytest.warns(UserWarning, match="Josephson window"):
        BJJParams.from_u(4, 0.5)


def test_spectral_evolution_matches_direct_integration():
    n = 8
    params = BJJParams.from_u(n, 50.0)
    ops = build_bjj(params)
    h = ops.hamiltonian
    horizon = 50.0 / params.J
    check_times = np.linspace(0.0, horizon, 11)

    def rhs(_, y):
        psi = y[: n + 1] + 1j * y[n + 1 :]
        dpsi = -1j * (h @ psi)
        return np.concatenate([dpsi.real, dpsi.imag])

    for kind in ("even", "pi"):
        start = make_initial(kind, n)
        y0 = np.concatenate([start.amplitudes.real, start.amplitudes.imag])
        sol = solve_ivp(
            rhs,
            (0.0, horizon),
            y0,
            t_eval=check_times,
            method="DOP853",
            rtol=1e-11,
            atol=1e-12,
        )
        assert sol.success
        worst = 0.0
        for k, t in enumerate(check_times):
            spectral = evolve_bjj(start, ops, float(t)).amplitudes
            direct = sol.y[: n + 1, k] + 1j * sol.y[n + 1 :, k]
            worst = max(worst, float(np.max(np.abs(spectral - direct))))
        assert worst < 1e-8


def window_u(n_atoms, position):
    """A coupling u inside the Josephson window (1, N^2), away from its ends."""
    return 1.0 + (n_atoms**2 - 1.0) * (0.01 + 0.98 * position)


@settings(max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(2, 60),
    position=st.floats(0.0, 1.0),
    J=st.floats(0.1, 10.0),
)
def test_operators_are_exactly_hermitian(n_atoms, position, J):
    """L_x, L_y, L_z and H equal their adjoints with tolerance 0: L_- is the
    mirror of L_+ and L_z is real diagonal, so no rounding can break it."""
    ops = build_bjj(BJJParams.from_u(n_atoms, window_u(n_atoms, position), J=J))
    for op in (ops.lx, ops.ly, ops.lz, ops.hamiltonian):
        assert np.array_equal(op, op.conj().T)


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 20),
    position=st.floats(0.0, 1.0),
    theta=st.floats(0.1, np.pi - 0.1),
    phi=st.floats(-np.pi, np.pi),
    ell=st.integers(1, 4),
    t=st.floats(0.0, 1e3),
)
def test_evolution_preserves_norm_for_generated_states(half, position, theta, phi, ell, t):
    """Unitarity for N <= 40, u across the window, t <= 1e3, on the normalized
    sum of ell coherent states at azimuths phi + 2 pi j / ell: the norm
    moves by at most 1e-12."""
    n_atoms = 2 * half
    ops = build_bjj(BJJParams.from_u(n_atoms, window_u(n_atoms, position)))
    amps = sum(su2_coherent(theta, phi + 2.0 * np.pi * j / ell, n_atoms).amplitudes
               for j in range(ell))
    state = SpinState(amps / np.linalg.norm(amps))
    assert abs(evolve_bjj(state, ops, t).norm() - 1.0) <= 1e-12


def test_evolution_preserves_norm_and_energy():
    params = BJJParams.from_u(20, 50.0)
    ops = build_bjj(params)
    state = make_initial("even", 20)
    h = ops.hamiltonian
    e0 = float((state.amplitudes.conj() @ h @ state.amplitudes).real)
    for t in (0.3, 17.0, 400.0):
        moved = evolve_bjj(state, ops, t)
        assert_allclose(moved.norm(), 1.0, atol=1e-12)
        e = float((moved.amplitudes.conj() @ h @ moved.amplitudes).real)
        assert abs(e - e0) < 1e-8


def test_bloch_series_matches_pointwise_evolution():
    params = BJJParams.from_u(14, 50.0)
    ops = build_bjj(params)
    state = make_initial("pi", 14)
    plan = SamplingPlan(0.0, 0.21, 20)
    series = bloch_series(state, ops, plan, observable="lx")
    for k, t in enumerate(plan.times()):
        moved = evolve_bjj(state, ops, float(t))
        expected = 2.0 * bloch_expectation(moved, ops, "lx") / 14.0
        assert_allclose(series.values[k], expected, atol=1e-12)


def test_bloch_series_start_values():
    n = 40
    ops = build_bjj(BJJParams.from_u(n, 50.0))
    plan = SamplingPlan(0.0, 0.1, 4)
    pi_series = bloch_series(make_initial("pi", n), ops, plan, observable="lx")
    assert_allclose(pi_series.values[0], -1.0, atol=1e-12)
    even_series = bloch_series(make_initial("even", n), ops, plan, observable="lx")
    assert_allclose(even_series.values[0], 0.0, atol=1e-12)


def test_series_metadata():
    ops = build_bjj(BJJParams.from_u(6, 30.0))
    series = bloch_series(
        make_initial("even", 6), ops, SamplingPlan(0.0, 0.5, 8), observable="lz"
    )
    assert series.origin["system"] == "bjj"
    assert series.origin["observable"] == "lz"


def test_validation_errors():
    with pytest.raises(ValueError):
        su2_coherent(-0.1, 0.0, 8)
    with pytest.raises(ValueError):
        make_initial("odd-thing", 8)
    with pytest.raises(ValueError):
        make_initial("even", 7)  # odd atom number
    with pytest.raises(ValueError):
        BJJParams(n_atoms=1)
    ops = build_bjj(BJJParams.from_u(8, 50.0))
    with pytest.raises(ValueError):
        ops.operator("lq")
    with pytest.raises(ValueError):
        evolve_bjj(make_initial("pi", 6), ops, 1.0)  # dimension mismatch
    with pytest.raises(ValueError):
        SpinState(np.ones((2, 2)))
