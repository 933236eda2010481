"""Number-basis states: amplitudes, superpositions, quadrature moments.

Closed-form oracles used here:
  - coherent state moments: <x> = sqrt(2) Re(alpha), <p> = sqrt(2) Im(alpha),
    <x^2> = 1/2 + |alpha|^2 + Re(alpha^2), var(x) var(p) = 1/4;
  - two-component superposition prefactor [2 (1 + e^{-2 a^2})]^{-1/2};
  - dense matrix representation of the ladder quadratures, built here
    independently of the implementation under test.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnldyn import fock
from qnldyn.fock import (
    FockVector,
    TAIL_BOUND,
    apply_quadrature,
    choose_cutoff,
    coherent_state,
    inner,
    log_gamma,
    norm,
    poisson_tail,
    quadrature_moment,
    superpose_coherent,
)
from qnldyn.spectral import check_normalized

ALPHAS = [0.5, 1.0, 2.0, 3.5, 5.0]


def dense_quadratures(dim):
    """x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)) as dense matrices."""
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)  # annihilation
    x = (lower + lower.T) / np.sqrt(2.0)
    p = (lower - lower.T) / (1j * np.sqrt(2.0))
    return x, p


def test_coherent_state_is_normalized():
    for a in ALPHAS:
        state = coherent_state(a)
        check_normalized(state.amplitudes)
        assert_allclose(norm(state), 1.0, rtol=0.0, atol=1e-12)


def test_coherent_amplitudes_match_poisson_weights():
    a = 2.0
    state = coherent_state(a)
    n = np.arange(len(state))
    # |C_n|^2 is the Poisson(|a|^2) mass function
    from scipy.stats import poisson

    assert_allclose(np.abs(state.amplitudes) ** 2, poisson.pmf(n, a * a), atol=1e-13)


def test_chosen_cutoff_respects_tail_bound():
    for a in ALPHAS:
        cut = choose_cutoff(a)
        assert poisson_tail(cut, a * a) <= TAIL_BOUND
        assert cut >= a * a  # cutoff sits above the mean occupation


#: Mean occupations |alpha|^2 at which cutoffs are checked against scipy.
MEAN_GRID = np.logspace(-4.0, np.log10(5000.0), 1000)


def test_cutoffs_match_a_gammainc_reference():
    """choose_cutoff's rule evaluated on scipy's regularized incomplete gamma
    P(k + 1, mean) = P(N > k) picks the same cutoff at every mean, and every
    candidate tail above 1e-300 agrees with it to 2e-11 relative."""
    from scipy.special import gammainc

    for mean in MEAN_GRID:
        lo = int(np.floor(mean))
        candidates = np.arange(lo, lo + int(np.ceil(20.0 * np.sqrt(mean) + 40.0)))
        reference = gammainc(candidates + 1.0, mean)
        first = candidates[np.argmax(reference < TAIL_BOUND)]
        assert choose_cutoff(np.sqrt(mean)) == max(int(np.ceil(1.5 * first)), 8), mean
        tails = fock._poisson_tails(lo, candidates.size, mean)
        shown = reference > 1e-300
        assert_allclose(tails[shown], reference[shown], rtol=2e-11, atol=0.0)
        for k in (0, lo // 2, lo, int(first)):
            assert_allclose(poisson_tail(k, mean), gammainc(k + 1.0, mean), rtol=2e-11)


def test_log_factorial_matches_gammaln():
    """log_gamma at n + 1 is log n!, and it holds at the non-integer arguments
    of the Morse norms and packets, Gamma(2 lam - n), across scales."""
    from scipy.special import gammaln

    n = np.arange(10000)
    assert_allclose(log_gamma(n + 1.0), gammaln(n + 1.0), rtol=1e-15, atol=0.0)
    x = np.concatenate([np.arange(1, 10000) + 0.5, np.logspace(-3.0, 4.0, 2001)])
    assert_allclose(log_gamma(x), gammaln(x), rtol=1e-14, atol=1e-15)


def test_poisson_tail_decreases_with_cutoff():
    tails = [poisson_tail(c, 9.0) for c in range(10, 60, 5)]
    assert all(t1 > t2 for t1, t2 in zip(tails, tails[1:]))


def test_choose_cutoff_grows_with_amplitude():
    cuts = [choose_cutoff(a) for a in ALPHAS]
    assert all(c1 < c2 for c1, c2 in zip(cuts, cuts[1:]))


def test_coherent_first_moments_closed_form():
    for a in ALPHAS:
        state = coherent_state(a)
        assert_allclose(quadrature_moment(state, "x", 1), np.sqrt(2.0) * a, atol=1e-10)
        assert_allclose(quadrature_moment(state, "p", 1), 0.0, atol=1e-10)


def test_coherent_second_moment_closed_form():
    # real alpha: <x^2> = 1/2 + |alpha|^2 + Re(alpha^2) = 1/2 + 2 alpha^2
    for a in ALPHAS:
        state = coherent_state(a)
        assert_allclose(
            quadrature_moment(state, "x", 2), 0.5 + 2.0 * a * a, atol=1e-9
        )


def test_complex_amplitude_moments():
    a = 1.2 + 0.7j
    state = coherent_state(a)
    assert_allclose(quadrature_moment(state, "x", 1), np.sqrt(2.0) * a.real, atol=1e-10)
    assert_allclose(quadrature_moment(state, "p", 1), np.sqrt(2.0) * a.imag, atol=1e-10)
    expect_xsq = 0.5 + abs(a) ** 2 + (a * a).real
    assert_allclose(quadrature_moment(state, "x", 2), expect_xsq, atol=1e-9)


def test_quadrature_moments_against_dense_matrices():
    rng = np.random.default_rng(42)
    dim = 24
    x, p = dense_quadratures(dim)
    for _ in range(6):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v[-4:] = 0.0  # keep the ladder top empty so truncation guards stay quiet
        v /= np.linalg.norm(v)
        state = FockVector(v)
        for op, name in ((x, "x"), (p, "p")):
            assert_allclose(
                quadrature_moment(state, name, 1),
                (v.conj() @ op @ v).real,
                atol=1e-10,
            )
            assert_allclose(
                quadrature_moment(state, name, 2),
                (v.conj() @ op @ op @ v).real,
                atol=1e-10,
            )


def test_apply_quadrature_matches_dense_action():
    rng = np.random.default_rng(5)
    dim = 16
    x, p = dense_quadratures(dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    assert_allclose(apply_quadrature(v, "x"), x @ v, atol=1e-12)
    assert_allclose(apply_quadrature(v, "p"), p @ v, atol=1e-12)


def test_heisenberg_floor_across_states():
    states = [coherent_state(a) for a in ALPHAS]
    states += [superpose_coherent(a, ell)[0] for a in (2.0, 3.0) for ell in (2, 3)]
    for state in states:
        var_x = quadrature_moment(state, "x", 2) - quadrature_moment(state, "x", 1) ** 2
        var_p = quadrature_moment(state, "p", 2) - quadrature_moment(state, "p", 1) ** 2
        assert var_x * var_p >= 0.25 - 1e-8


def test_coherent_state_saturates_uncertainty():
    state = coherent_state(2.5)
    var_x = quadrature_moment(state, "x", 2) - quadrature_moment(state, "x", 1) ** 2
    var_p = quadrature_moment(state, "p", 2) - quadrature_moment(state, "p", 1) ** 2
    assert_allclose(var_x * var_p, 0.25, atol=1e-10)


def test_two_component_prefactor_closed_form():
    for a in (1.5, 2.0, 3.0):
        _, spec = superpose_coherent(a, 2)
        expected = 1.0 / np.sqrt(2.0 * (1.0 + np.exp(-2.0 * a * a)))
        assert_allclose(spec.norm_const, expected, rtol=0.0, atol=1e-12)


def test_superposition_support_masked_exactly():
    for ell in (2, 3, 5):
        state, spec = superpose_coherent(3.0, ell)
        n = np.arange(len(state))
        off = state.amplitudes[n % ell != 0]
        assert np.all(off == 0.0)  # exact zeros, not small residues
        assert spec.ell == ell
        check_normalized(state.amplitudes)


def test_superposition_on_lattice_amplitudes_proportional():
    a = 3.0
    base = coherent_state(a)
    state, _ = superpose_coherent(a, 3, cutoff=base.cutoff)
    keep = np.arange(len(base)) % 3 == 0
    ratios = state.amplitudes[keep] / base.amplitudes[keep]
    assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_two_component_matches_explicit_sum():
    a = 2.0
    cut = choose_cutoff(a)
    plus = coherent_state(a, cut).amplitudes
    minus = coherent_state(-a, cut).amplitudes
    explicit = plus + minus
    explicit /= np.linalg.norm(explicit)
    state, _ = superpose_coherent(a, 2, cutoff=cut)
    assert_allclose(state.amplitudes, explicit, atol=1e-12)


def test_moments_stable_under_cutoff_doubling():
    a = 3.0
    cut = choose_cutoff(a)
    for ell in (1, 2, 3):
        if ell == 1:
            s1, s2 = coherent_state(a, cut), coherent_state(a, 2 * cut)
        else:
            s1 = superpose_coherent(a, ell, cutoff=cut)[0]
            s2 = superpose_coherent(a, ell, cutoff=2 * cut)[0]
        for name, order in (("x", 1), ("x", 2), ("p", 2)):
            m1 = quadrature_moment(s1, name, order)
            m2 = quadrature_moment(s2, name, order)
            assert abs(m1 - m2) < 1e-8


def test_inner_product_conjugate_symmetry():
    a = coherent_state(1.0 + 0.5j)
    b = coherent_state(0.3 - 1.1j, cutoff=a.cutoff)
    assert_allclose(inner(a, b), np.conj(inner(b, a)), atol=1e-14)
    assert_allclose(inner(a, a), 1.0, atol=1e-12)


def test_coherent_overlap_closed_form():
    # |<beta|alpha>|^2 = exp(-|alpha - beta|^2)
    a, b = 1.0, 2.5
    cut = choose_cutoff(b)
    ov = inner(coherent_state(b, cut), coherent_state(a, cut))
    assert_allclose(abs(ov) ** 2, np.exp(-((a - b) ** 2)), atol=1e-10)


def test_validation_errors():
    with pytest.raises(ValueError):
        superpose_coherent(2.0, 0)
    with pytest.raises(ValueError):
        apply_quadrature(np.ones(4, dtype=complex), "y")
    with pytest.raises(ValueError):
        quadrature_moment(coherent_state(1.0), "x", 0)
