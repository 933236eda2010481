"""Delay embedding, return-time statistics, recurrence plots, divergence rates.

Ground truths:
  - hand-checked embeddings of tiny integer sequences;
  - iid uniform samples: returns to a width-w cell are geometric with
    mean 1/p, p the cell's occupation probability;
  - seeded draws from an exponential law recover their rate;
  - the logistic map at r = 4 has maximal exponent ln 2; a sinusoid has
    none;
  - a curve built as an exact straight line must be fitted exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

from qnldyn.errors import NeighborhoodError
from qnldyn.series import SamplingPlan, TimeSeries, normalize_series
from qnldyn.tsa import (
    LyapunovCurve,
    auto_fit_window,
    autocorr_delay,
    delay_embed,
    diagonal_line_lengths,
    diagonal_profile,
    diagonal_spacings,
    dominant_peak_count,
    exponential_fit,
    logistic_series,
    lyapunov_curve,
    lyapunov_scan,
    mean_diagonal_length,
    quasiperiodic_series,
    recurrence_plot,
    return_time_histogram,
    sine_series,
)
from qnldyn.tsa.lyapunov import fit_slope, fitted
from qnldyn.tsa.recurrence import RecurrenceData


# ---------------------------------------------------------------- embedding


def test_delay_embedding_tiny_case():
    series = TimeSeries(np.array([1.0, 2.0, 3.0, 4.0]), 1.0)
    emb = delay_embed(series, 2, 1)
    assert_allclose(emb.points, [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]], atol=0.0)
    assert_allclose(emb.scalar_track, [2.0, 3.0, 4.0], atol=0.0)
    assert len(emb) == 3
    assert emb.dt == series.dt


def test_delay_embedding_count_and_delay():
    series = TimeSeries(np.arange(30.0), 0.5)
    emb = delay_embed(series, 4, 3)
    assert len(emb) == 30 - 3 * 3
    assert_allclose(emb.points[0], [0.0, 3.0, 6.0, 9.0], atol=0.0)
    assert_allclose(emb.points[-1], [20.0, 23.0, 26.0, 29.0], atol=0.0)


def test_embedding_validation():
    series = TimeSeries(np.arange(10.0), 1.0)
    with pytest.raises(ValueError):
        delay_embed(series, 0, 1)
    with pytest.raises(ValueError):
        delay_embed(series, 2, 0)
    with pytest.raises(ValueError):
        delay_embed(series, 6, 2)  # only 10 - 10 = 0 vectors


def test_autocorr_delay_quarter_period():
    series = TimeSeries(np.cos(2.0 * np.pi * np.arange(4000) / 20.0), 1.0)
    assert autocorr_delay(series) == 10  # first acf minimum of a cosine


def test_autocorr_delay_degenerate_series():
    assert autocorr_delay(TimeSeries(np.full(50, 3.7), 1.0)) == 1


# ---------------------------------------------------------------- returns


def test_iid_uniform_returns_are_geometric():
    rng = np.random.default_rng(7)
    values = rng.random(200000)
    series = TimeSeries(values, 1.0)
    hist = return_time_histogram(series, 0.01)
    lo = values.min()
    reference = np.floor((values[0] - lo) / 0.01)
    p = np.mean(np.floor((values - lo) / 0.01) == reference)
    assert abs(hist.mean_tau * p - 1.0) < 0.1  # mean = 1/p within 10%
    assert hist.fit_quality > 0.8
    assert not hist.quasi_periodic
    assert not hist.insufficient


def test_exponential_rate_recovered():
    rng = np.random.default_rng(11)
    times = rng.exponential(scale=2.0, size=10000)
    mu, quality, quasi, occupied = exponential_fit(times)
    assert abs(mu - 0.5) < 0.025  # within 5%
    assert quality > 0.9
    assert not quasi
    assert occupied > 10


def test_mu_is_exact_inverse_mean():
    times = np.array([3.0, 5.0, 9.0, 2.0, 11.0, 4.0, 6.0, 8.0, 5.0, 7.0])
    mu, _, _, _ = exponential_fit(times)
    assert mu * times.mean() == 1.0


def test_constant_return_times_flag_quasi_periodic():
    mu, quality, quasi, occupied = exponential_fit(np.full(200, 7.0))
    assert quasi
    assert quality == 0.0
    assert occupied == 1
    assert_allclose(mu, 1.0 / 7.0, atol=1e-15)


def test_histogram_on_periodic_series():
    series = TimeSeries(np.sin(2.0 * np.pi * np.arange(5000) / 50.0), 1.0)
    hist = return_time_histogram(series, 0.05)
    assert hist.quasi_periodic or hist.occupied_bins <= 3


def test_insufficient_returns_are_flagged():
    # two visits only: one recorded gap
    values = np.zeros(100)
    values[50] = 1.0  # leaves the zero cell once
    series = TimeSeries(values + np.linspace(0, 1e-9, 100), 1.0)
    hist = return_time_histogram(series, 0.5)
    assert hist.insufficient
    assert hist.fit_quality is None


def test_never_returning_series_raises():
    series = TimeSeries(np.linspace(0.0, 1.0, 100), 1.0)
    with pytest.raises(ValueError, match="never returned"):
        return_time_histogram(series, 0.001)


def test_return_time_validation():
    series = TimeSeries(np.zeros(10) + np.linspace(0, 1e-9, 10), 1.0)
    with pytest.raises(ValueError):
        return_time_histogram(series, 0.0)
    with pytest.raises(ValueError):
        exponential_fit(np.array([]))
    with pytest.raises(ValueError):
        exponential_fit(np.array([1.0, -2.0]))


def test_mu_per_time_rescales_by_dt():
    rng = np.random.default_rng(3)
    series = TimeSeries(rng.random(5000), 0.25)
    hist = return_time_histogram(series, 0.05)
    assert_allclose(hist.mu_per_time, hist.mu_fit / 0.25, atol=1e-15)


# ---------------------------------------------------------------- recurrence


def embedded_sine(n=3000, period=100.0, m=3, delay=25):
    series = TimeSeries(np.sin(2.0 * np.pi * np.arange(n) / period), 1.0)
    return delay_embed(series, m, delay)


def test_recurrence_reflexive_and_symmetric():
    rec = recurrence_plot(embedded_sine(), 0.3, (0, 500))
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(0, rec.n_points, size=2)
        assert rec.contains(i, i)
        assert rec.contains(i, j) == rec.contains(j, i)


def test_recurrence_rate_counts_mirror_and_diagonal(dense):
    rec = recurrence_plot(embedded_sine(), 0.3, (0, 400))
    full = dense(rec)
    assert_allclose(rec.recurrence_rate(), full.mean(), atol=1e-15)
    assert np.all(full == full.T)
    assert np.all(np.diag(full))


def test_recurrence_monotone_in_epsilon():
    emb = embedded_sine()
    small = recurrence_plot(emb, 0.1, (0, 800))
    large = recurrence_plot(emb, 0.3, (0, 800))
    pairs_small = set(zip(small.ii.tolist(), small.jj.tolist()))
    pairs_large = set(zip(large.ii.tolist(), large.jj.tolist()))
    assert pairs_small < pairs_large  # strict: more pairs at the larger radius


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 400),
    m=st.integers(1, 3),
    epsilon=st.floats(0.01, 0.6),
    start=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairs_sorted_as_by_lexsort(n, m, epsilon, start, seed):
    series = TimeSeries(np.random.default_rng(seed).random(n + 10), 1.0)
    emb = delay_embed(series, m, 1)
    rec = recurrence_plot(emb, epsilon, (start, start + n))
    pairs = cKDTree(emb.points[start : start + n]).query_pairs(
        epsilon, output_type="ndarray"
    )
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    assert np.array_equal(rec.ii, pairs[order, 0])
    assert np.array_equal(rec.jj, pairs[order, 1])


def test_periodic_signal_diagonal_spacing_matches_period():
    rec = recurrence_plot(embedded_sine(period=100.0), 0.3, (0, 2000))
    spacings = diagonal_spacings(rec)
    assert spacings.size >= 5
    assert abs(spacings.mean() - 100.0) < 2.0
    assert dominant_peak_count(spacings) == 1


def test_periodic_diagonals_are_long_noise_diagonals_short():
    rec_sine = recurrence_plot(embedded_sine(period=100.0), 0.3, (0, 2000))
    rng = np.random.default_rng(3)
    noise = TimeSeries(rng.random(3000), 1.0)
    rec_noise = recurrence_plot(delay_embed(noise, 3, 1), 0.05, (0, 2000))
    assert mean_diagonal_length(rec_sine) > 10.0 * mean_diagonal_length(rec_noise)
    assert mean_diagonal_length(rec_noise) < 4.0


def test_diagonal_line_lengths_tiny_case():
    # one unbroken 3-run at offset 2 and an isolated point at offset 5
    ii = np.array([0, 1, 2, 0])
    jj = np.array([2, 3, 4, 5])
    order = np.lexsort((jj, ii))
    rec = RecurrenceData(10, 0.1, ii[order], jj[order])
    assert_allclose(diagonal_line_lengths(rec, l_min=2), [3], atol=0.0)
    assert_allclose(mean_diagonal_length(rec), 3.0, atol=0.0)
    profile = diagonal_profile(rec)
    assert profile[2] == 3 and profile[5] == 1 and profile.sum() == 4


def test_dominant_peak_count_families():
    assert dominant_peak_count(np.array([])) == 0
    assert dominant_peak_count(np.array([10.0] * 8 + [25.0] * 2)) == 2
    assert dominant_peak_count(np.array([10.0] * 9 + [100.0])) == 1
    # everything inside the tolerance band is a single family
    assert dominant_peak_count(np.array([50.0, 50.5, 51.0, 49.5])) == 1


def test_two_incommensurate_tones_stay_quasi_periodic():
    series = quasiperiodic_series(4000)
    norm = normalize_series(series)
    emb = delay_embed(norm, 3, autocorr_delay(norm))
    rec = recurrence_plot(emb, 0.05, (0, 2000))
    assert dominant_peak_count(diagonal_spacings(rec)) <= 3


def test_recurrence_validation():
    emb = embedded_sine(n=300)
    with pytest.raises(ValueError):
        recurrence_plot(emb, 0.0)
    with pytest.raises(ValueError):
        recurrence_plot(emb, 0.1, (100, 50))
    rec = recurrence_plot(emb, 0.3, (0, 100))
    with pytest.raises(IndexError):
        rec.contains(0, 100)


def test_recurrence_data_rejects_pairs_off_the_invariant():
    ii = np.array([0, 1, 2])
    RecurrenceData(10, 0.1, ii, np.array([3, 4, 9]))  # valid
    with pytest.raises(ValueError, match="0 <= i < j < n_points"):
        RecurrenceData(10, 0.1, ii, np.array([3, 4, 10]))  # j out of range
    with pytest.raises(ValueError, match="0 <= i < j < n_points"):
        RecurrenceData(10, 0.1, np.array([-1, 1, 2]), np.array([3, 4, 9]))
    with pytest.raises(ValueError, match="0 <= i < j < n_points"):
        RecurrenceData(10, 0.1, ii, np.array([3, 1, 9]))  # i == j
    with pytest.raises(ValueError, match="strictly increasing"):
        RecurrenceData(10, 0.1, np.array([0, 2, 1]), np.array([3, 4, 9]))
    with pytest.raises(ValueError, match="strictly increasing"):
        RecurrenceData(10, 0.1, np.array([0, 0]), np.array([3, 3]))  # repeat
    with pytest.raises(ValueError, match="equal length"):
        RecurrenceData(10, 0.1, ii, np.array([3, 4]))


# ---------------------------------------------------------------- lyapunov


def test_fit_slope_exact_line():
    t = np.arange(40)
    curve = LyapunovCurve(
        t_offsets=t,
        s_values=np.pi + 0.25 * (t * 0.5),
        epsilon=0.1,
        m=3,
        delay=1,
        theiler=6,
        dt=0.5,
        n_references=10,
    )
    assert abs(fit_slope(curve, (0, 40)) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        fit_slope(curve, (0, 3))


def test_auto_window_stops_before_saturation():
    t = np.arange(200)
    s = np.minimum(0.1 * t, 5.0) - 8.0
    curve = LyapunovCurve(t, s, 0.05, 3, 1, 6, 1.0, 50)
    lo, hi = auto_fit_window(curve)
    assert lo == 1
    assert hi <= 60  # the rise ends at t = 50
    assert abs(fit_slope(curve, (lo, hi)) - 0.1) < 1e-9


def test_auto_window_flat_curve_reports_no_rise():
    t = np.arange(120)
    rng = np.random.default_rng(1)
    s = -3.0 + 0.01 * rng.standard_normal(120)
    curve = LyapunovCurve(t, s, 0.05, 3, 1, 6, 1.0, 50)
    lo, hi = auto_fit_window(curve)
    assert (lo, hi) == (1, 120)  # whole-curve fit, slope near zero
    assert abs(fit_slope(curve, (lo, hi))) < 5e-4


def test_fitted_attaches_window_and_slope():
    t = np.arange(50)
    curve = LyapunovCurve(t, 0.3 * t - 9.0, 0.05, 3, 1, 6, 1.0, 50)
    out = fitted(curve, (0, 50))
    assert out.fit_window == (0, 50)
    assert abs(out.lambda_max - 0.3) < 1e-12


def test_logistic_map_exponent_close_to_ln2():
    scan = lyapunov_scan(logistic_series(20000))
    assert abs(scan.lambda_max - np.log(2.0)) / np.log(2.0) < 0.15
    # every embedding dimension should individually land in the window
    for lam in scan.lambda_by_m.values():
        assert abs(lam - np.log(2.0)) / np.log(2.0) < 0.2


def test_periodic_signal_has_no_exponent():
    series = sine_series(20000, period=97.31)
    scan = lyapunov_scan(series)
    assert abs(scan.lambda_max) * series.dt < 0.005  # per sample


def test_scan_reports_spread_and_curves():
    scan = lyapunov_scan(logistic_series(6000), m_values=(3, 4), epsilons=(0.02, 0.04))
    assert sorted(scan.lambda_by_m) == [3, 4]
    assert len(scan.curves) == 4
    lams = list(scan.lambda_by_m.values())
    assert_allclose(scan.spread, max(lams) - min(lams), atol=1e-12)
    assert scan.delay >= 1
    for curve in scan.curves:
        assert curve.lambda_max is not None
        assert curve.fit_window is not None


def test_divergence_curve_starts_inside_radius():
    series = normalize_series(logistic_series(6000))
    emb = delay_embed(series, 3, 1)
    curve = lyapunov_curve(emb, 0.02, theiler=6, t_max=40)
    assert curve.t_offsets[0] == 0
    assert curve.s_values[0] <= np.log(0.02) + 1e-9


def test_theiler_window_excludes_temporal_neighbors():
    # a slow ramp: every spatial neighbor is also a temporal neighbor,
    # so a wide exclusion zone must empty all neighborhoods
    series = TimeSeries(np.linspace(0.0, 1.0, 400), 1.0)
    emb = delay_embed(series, 2, 1)
    with pytest.raises(NeighborhoodError):
        lyapunov_curve(emb, 0.004, theiler=300, t_max=20)


def test_n_references_counts_only_references_with_neighbors():
    # sparse noise: at this radius some points have no neighbor outside
    # the Theiler window; a brute-force distance matrix counts the rest
    rng = np.random.default_rng(7)
    emb = delay_embed(TimeSeries(rng.random(600), 1.0), 2, 1)
    t_max, theiler, eps = 20, 3, 0.01
    usable = len(emb) - t_max
    pts = emb.points[:usable]
    close = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1) <= eps
    idx = np.arange(usable)
    close &= np.abs(idx[:, None] - idx[None, :]) > theiler
    expected = int(np.count_nonzero(close.any(axis=1)))
    curve = lyapunov_curve(emb, eps, theiler=theiler, t_max=t_max, n_ref=usable)
    assert 0 < curve.n_references < usable
    assert curve.n_references == expected


def test_tiny_radius_raises_neighborhood_error():
    rng = np.random.default_rng(5)
    series = TimeSeries(rng.random(500), 1.0)
    emb = delay_embed(series, 3, 1)
    with pytest.raises(NeighborhoodError):
        lyapunov_curve(emb, 1e-12, theiler=2, t_max=10)


def test_lyapunov_validation():
    emb = delay_embed(TimeSeries(np.arange(100.0), 1.0), 2, 1)
    with pytest.raises(ValueError):
        lyapunov_curve(emb, -1.0, theiler=2, t_max=10)
    with pytest.raises(ValueError):
        lyapunov_curve(emb, 0.1, theiler=-1, t_max=10)
    with pytest.raises(ValueError):
        lyapunov_curve(emb, 0.1, theiler=2, t_max=0)
    with pytest.raises(ValueError):
        lyapunov_curve(emb, 0.1, theiler=2, t_max=99)


# ---------------------------------------------------------------- synthetic


def test_synthetic_series_forms():
    logi = logistic_series(500)
    assert np.all((logi.values >= 0.0) & (logi.values <= 1.0))
    sine = sine_series(500, period=4.0, amplitude=2.0)
    assert_allclose(sine.values.max(), 2.0, atol=1e-12)  # sample 1 is the peak
    assert sine.origin["system"] == "sine"


def test_normalize_series_maps_to_unit_interval():
    series = TimeSeries(np.array([3.0, 7.0, 5.0, 3.0, 11.0]), 0.1)
    norm = normalize_series(series)
    assert norm.values.min() == 0.0
    assert norm.values.max() == 1.0
    assert norm.dt == series.dt
    assert_allclose(norm.values, (series.values - 3.0) / 8.0, atol=1e-15)


def test_sampling_plan_times():
    plan = SamplingPlan(1.5, 0.25, 5)
    assert_allclose(plan.times(), [1.5, 1.75, 2.0, 2.25, 2.5], atol=1e-15)
    with pytest.raises(ValueError):
        SamplingPlan(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        SamplingPlan(0.0, 0.1, 1)
