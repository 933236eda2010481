"""Number-diagonal nonlinear phase evolution and its revival structure.

Oracles:
  - a single number state picks up exactly exp(-i [chi n(n-1) + chi' n(n-1)(n-2)] t);
  - n(n-1) is always even, so every state revives at pi/chi when chi' = 0,
    ring superpositions earlier (the sublattice tightens the phase lattice);
  - with chi' = chi/3 the cubic phases stay commensurate: 6 | n(n-1)(n-2)
    makes chi' n(n-1)(n-2) t a multiple of 2 pi at t = pi/chi as well;
  - an independently summed two-level interference formula for <x^2>(t).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qnldyn.fock import (
    FockVector,
    coherent_state,
    inner,
    quadrature_moment,
    superpose_coherent,
)
from qnldyn.kerr import (
    KerrParams,
    evolve_kerr,
    kerr_series,
    level_phases,
    parse_observable,
    revival_period,
    xsq_closed_form,
)
from qnldyn.series import SamplingPlan


def fidelity(a, b):
    return abs(inner(a, b)) ** 2


def test_number_state_acquires_exact_phase():
    params = KerrParams(chi=0.37, chi_prime=0.011)
    t = 2.31
    for n in (0, 1, 2, 5, 9):
        amps = np.zeros(12, dtype=complex)
        amps[n] = 1.0
        evolved = evolve_kerr(FockVector(amps), params, t)
        expected = np.exp(
            -1j * (0.37 * n * (n - 1) + 0.011 * n * (n - 1) * (n - 2)) * t
        )
        assert_allclose(evolved.amplitudes[n], expected, atol=1e-14)


def test_level_phases_first_values():
    theta = level_phases(KerrParams(chi=1.0, chi_prime=0.0), 4)
    assert_allclose(theta, [0.0, 0.0, 2.0, 6.0, 12.0], atol=0.0)


def test_norm_preserved_over_long_times():
    state = coherent_state(3.0)
    params = KerrParams(chi=0.81, chi_prime=1e-3)
    for t in (1.0, 137.0, 9999.0):
        evolved = evolve_kerr(state, params, t)
        assert_allclose(np.linalg.norm(evolved.amplitudes), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    radius=st.floats(0.0, 5.0),
    angle=st.floats(-np.pi, np.pi),
    ell=st.integers(1, 4),
    chi=st.floats(0.05, 2.0),
    ratio=st.floats(0.0, 1e-2),
    t=st.floats(-1e4, 1e4),
)
def test_evolution_preserves_norm_for_generated_packets(radius, angle, ell, chi, ratio, t):
    """Unitarity for |alpha| <= 5, ell <= 4 and |t| <= 1e4: the norm moves by
    at most 1e-12, rounding of unit-modulus phases over ~150 levels."""
    state, _ = superpose_coherent(radius * np.exp(1j * angle), ell)
    evolved = evolve_kerr(state, KerrParams(chi=chi, chi_prime=ratio * chi), t)
    assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) <= 1e-12


def test_evolution_group_property():
    state = coherent_state(2.0)
    params = KerrParams(chi=0.53, chi_prime=2e-3)
    t1, t2 = 1.7, 4.9
    once = evolve_kerr(state, params, t1 + t2)
    twice = evolve_kerr(evolve_kerr(state, params, t1), params, t2)
    assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-10)


def test_revival_period_values():
    chi = 0.7
    assert_allclose(revival_period(1, chi), np.pi / chi)
    assert_allclose(revival_period(2, chi), np.pi / chi)  # 2 pi / (2 chi)
    assert_allclose(revival_period(3, chi), np.pi / (3 * chi))
    assert_allclose(revival_period(4, chi), np.pi / (2 * chi))
    assert_allclose(revival_period(5, chi), np.pi / (5 * chi))


def test_revival_fidelity_all_components():
    chi = 1.0
    params = KerrParams(chi=chi, chi_prime=0.0)
    for ell in (1, 2, 3, 4, 5):
        if ell == 1:
            state = coherent_state(2.0)
        else:
            state = superpose_coherent(2.0, ell)[0]
        revived = evolve_kerr(state, params, revival_period(ell, chi))
        assert abs(1.0 - fidelity(state, revived)) < 1e-10


def test_revival_is_not_earlier():
    chi = 1.0
    params = KerrParams(chi=chi, chi_prime=0.0)
    state = coherent_state(2.0)
    period = revival_period(1, chi)
    for frac in (0.25, 0.5, 0.75):
        part = evolve_kerr(state, params, frac * period)
        assert fidelity(state, part) < 0.99


def test_commensurate_cubic_term_preserves_revival():
    chi = 0.21
    params = KerrParams(chi=chi, chi_prime=chi / 3.0)
    state = coherent_state(2.0)
    revived = evolve_kerr(state, params, np.pi / chi)
    assert abs(1.0 - fidelity(state, revived)) < 1e-10


def test_generic_cubic_term_spoils_revival():
    chi = 0.21
    params = KerrParams(chi=chi, chi_prime=1e-3)
    state = coherent_state(2.0)
    shifted = evolve_kerr(state, params, np.pi / chi)
    assert fidelity(state, shifted) < 1.0 - 1e-6


def test_xsq_closed_form_t0():
    for a in (2.0, 5.0):
        val = xsq_closed_form(a, KerrParams(chi=1.0, chi_prime=1e-3), 0.0)
        assert_allclose(val, 0.5 + 2.0 * a * a, atol=1e-9)


def test_xsq_closed_form_matches_ladder_pipeline():
    params = KerrParams(chi=1.0, chi_prime=1e-3)
    alpha = 3.0
    plan = SamplingPlan(0.0, 0.037, 100)
    series = kerr_series(coherent_state(alpha), params, plan, "x^2")
    reference = xsq_closed_form(alpha, params, plan.times())
    assert np.max(np.abs(series.values - reference)) < 1e-8


def test_xsq_closed_form_memory_stays_flat_in_the_number_of_times():
    """1e5 times at |alpha|^2 = 25 go through the spectral kernel's blocks, so
    the traced peak stays under 32 MB; a (times, levels) phase matrix alone
    takes 330 MB."""
    params = KerrParams(chi=1.0, chi_prime=1e-3)
    times = SamplingPlan(0.0, 0.008, 100000).times()
    tracemalloc.start()
    try:
        values = xsq_closed_form(5.0, params, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert values.shape == times.shape
    assert_allclose(values[[0, -1]], [xsq_closed_form(5.0, params, t) for t in times[[0, -1]]],
                    rtol=0.0, atol=1e-12)


def test_fidelity_series_matches_direct_overlaps():
    params = KerrParams(chi=0.9, chi_prime=0.0)
    state = coherent_state(2.0)
    plan = SamplingPlan(0.0, 0.21, 40)
    series = kerr_series(state, params, plan, "fidelity")
    direct = [
        fidelity(state, evolve_kerr(state, params, t)) for t in plan.times()
    ]
    assert_allclose(series.values, direct, atol=1e-10)


@pytest.mark.baseline_kernels
def test_first_moment_series_matches_pointwise_moment():
    params = KerrParams(chi=0.6, chi_prime=5e-4)
    state = superpose_coherent(2.0, 2)[0]
    plan = SamplingPlan(0.1, 0.31, 25)
    series = kerr_series(state, params, plan, "x")
    direct = [
        quadrature_moment(evolve_kerr(state, params, t), "x", 1)
        for t in plan.times()
    ]
    assert_allclose(series.values, direct, atol=1e-10)


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("observable", ["x", "x^2", "x^3", "x^4", "p", "p^2", "p^3", "p^4"])
def test_moment_series_match_ladder_moments(observable):
    """The banded x^k and p^k operators against the ladder applied k times."""
    kind, order = parse_observable(observable)
    params = KerrParams(chi=0.6, chi_prime=5e-4)
    state = coherent_state(1.5 * np.exp(0.4j))
    plan = SamplingPlan(0.1, 0.31, 25)
    series = kerr_series(state, params, plan, observable)
    direct = [quadrature_moment(evolve_kerr(state, params, t), kind, order)
              for t in plan.times()]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-10)


@pytest.mark.baseline_kernels
def test_moment_series_memory_stays_small_at_large_occupation():
    """|alpha|^2 = 2500 puts the cutoff at 4290, where a dense operator
    alone would take 295 MB; the banded one keeps the traced peak of a
    200-sample <x^2> series under 50 MB, and its values match the ladder."""
    params = KerrParams(chi=1.0, chi_prime=1e-3)
    state = coherent_state(50.0)
    plan = SamplingPlan(0.1, 0.008, 200)
    tracemalloc.start()
    try:
        series = kerr_series(state, params, plan, "x^2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.cutoff == 4290
    assert peak < 50e6
    direct = [quadrature_moment(evolve_kerr(state, params, t), "x", 2)
              for t in plan.times()]
    assert_allclose(series.values, direct, rtol=0.0, atol=1e-9)


def test_series_metadata_travels():
    params = KerrParams(chi=1.0, chi_prime=0.0)
    plan = SamplingPlan(0.0, 0.1, 16)
    series = kerr_series(coherent_state(1.0), params, plan, "x^2")
    assert series.origin["system"] == "kerr"
    assert series.origin["observable"] == "x^2"
    assert series.dt == plan.dt


def test_parse_observable():
    assert parse_observable("x") == ("x", 1)
    assert parse_observable("x^2") == ("x", 2)
    assert parse_observable("p^4") == ("p", 4)
    assert parse_observable("fidelity") == ("fidelity", 0)
    for bad in ("y", "x^0", "x^-1", "q^2", ""):
        with pytest.raises(ValueError):
            parse_observable(bad)


def test_params_validation():
    with pytest.raises(ValueError):
        KerrParams(chi=0.0, chi_prime=0.0)
    with pytest.raises(ValueError):
        revival_period(0, 1.0)
    with pytest.raises(ValueError):
        revival_period(2, -1.0)
