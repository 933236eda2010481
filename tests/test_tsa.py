"""Delay embedding, return-time statistics, recurrence plots, divergence rates.

Ground truths:
  - hand-checked embeddings of tiny integer sequences;
  - iid uniform samples: returns to a width-w cell are geometric with
    mean 1/p, p the cell's occupation probability;
  - seeded draws from an exponential law recover their rate;
  - the logistic map at r = 4 has maximal exponent ln 2; a sinusoid has
    none;
  - a curve built as an exact straight line must be fitted exactly.

Oracles kept here: the divergence curve with its own k-d tree per radius
and an index gather, and the diagonal-line lengths ordered by lexsort.
"""

import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

from qnldyn.errors import NeighborhoodError
from qnldyn.series import SamplingPlan, TimeSeries, normalize_series
from qnldyn.seriesio import write_recurrence_bitmap
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
from qnldyn.tsa import embedding, lyapunov
from qnldyn.tsa.embedding import MAX_DELAY_LAG, EmbeddedSeries
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


#: Series lengths: the shortest with two lags, lags capped at n // 2 and at
#: MAX_DELAY_LAG, and two where n + max_lag + 1 is a power of two (8 and 8192).
ACF_LENGTHS = (5, 6, 4001, 3 * MAX_DELAY_LAG, 8192 - MAX_DELAY_LAG - 1)


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("n", ACF_LENGTHS)
def test_autocorrelation_equals_direct_sums_and_the_double_length_fft(n):
    x = np.random.default_rng(n).standard_normal(n) + np.sin(np.arange(n) / 7.0)
    max_lag = min(n // 2, MAX_DELAY_LAG)
    acf = embedding._autocorrelation(x, max_lag)
    direct = np.array([np.dot(x[: n - k], x[k:]) for k in range(max_lag + 1)])
    size = int(2 ** np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, size)
    double = np.fft.irfft(spec * np.conj(spec), size)[: max_lag + 1]
    # every |sum| is at most the lag-0 sum, so the bound is relative to it
    assert acf.shape == (max_lag + 1,)
    assert_allclose(acf, direct, rtol=0.0, atol=1e-12 * direct[0])
    assert_allclose(acf, double, rtol=0.0, atol=1e-12 * direct[0])


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("series", [
    sine_series(3000), sine_series(50000, period=431.7), quasiperiodic_series(20000),
    logistic_series(5000), logistic_series(40000)], ids=lambda s: s.origin["system"])
def test_autocorr_delay_equals_the_double_length_fft(series, double_length_delay):
    for s in (series, normalize_series(series)):
        assert autocorr_delay(s) == double_length_delay(s)


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


@pytest.mark.parametrize("repeats", [1, 4])
def test_occupied_bins_count_fit_bins_at_any_number_of_returns(repeats):
    # gaps 5, 6, 300: the fit bins are 8 samples wide, so 5 and 6 share one
    # whether 3 returns were recorded (insufficient) or 12
    gaps = np.tile([5, 6, 300], repeats)
    values = np.ones(gaps.sum() + 5)
    values[np.concatenate(([0], np.cumsum(gaps)))] = 0.0
    hist = return_time_histogram(TimeSeries(values, 1.0), 0.5)
    assert hist.return_times.tolist() == gaps.tolist()
    assert hist.insufficient is (repeats == 1)
    assert hist.occupied_bins == 2


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


@pytest.mark.parametrize("epsilon", [0.0, -0.1, np.inf, np.nan])
def test_recurrence_radius_must_be_finite_and_positive(epsilon):
    """An infinite radius would store all n(n - 1)/2 pairs."""
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        recurrence_plot(embedded_sine(), epsilon, (0, 100))


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


def random_cloud(n, m, seed):
    return delay_embed(TimeSeries(np.random.default_rng(seed).random(n + m), 1.0), m, 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    m=st.integers(1, 3),
    epsilon=st.floats(0.01, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_set_is_symmetric_with_the_mirror_in_the_bitmap(
    tmp_path_factory, n, m, epsilon, seed
):
    rec = recurrence_plot(random_cloud(n, m, seed), epsilon, (0, n))
    assert np.all(rec.ii < rec.jj)
    path = tmp_path_factory.mktemp("rp") / "rec.pbm"
    write_recurrence_bitmap(str(path), rec)
    payload = path.read_bytes().split(b"\n", 2)[2]
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8).reshape(n, -1), axis=1)
    plot = bits[::-1, :n].T.astype(bool)  # plot[i, j], origin at the lower left
    assert np.array_equal(plot, plot.T)
    assert np.all(np.diag(plot))
    assert np.all(plot[rec.ii, rec.jj]) and np.all(plot[rec.jj, rec.ii])
    assert np.count_nonzero(plot) == 2 * rec.n_pairs + n
    for i, j in np.random.default_rng(seed).integers(0, n, size=(5, 2)):
        assert rec.contains(i, j) == rec.contains(j, i) == plot[i, j]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 400),
    m=st.integers(1, 3),
    radii=st.lists(st.floats(0.005, 0.6), min_size=2, max_size=4, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_set_grows_monotonically_in_epsilon(n, m, radii, seed):
    emb = random_cloud(n, m, seed)
    keys = [
        rec.ii * n + rec.jj
        for rec in (recurrence_plot(emb, eps, (0, n)) for eps in sorted(radii))
    ]
    for small, large in zip(keys, keys[1:]):
        assert np.all(np.isin(small, large))


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


def _lexsort_line_lengths(rec, l_min=2):
    """Diagonal-line lengths with the pairs ordered by np.lexsort (oracle)."""
    if rec.n_pairs == 0:
        return np.empty(0, dtype=np.int64)
    offsets = rec.jj - rec.ii
    order = np.lexsort((rec.ii, offsets))
    off = offsets[order]
    ii = rec.ii[order]
    breaks = np.nonzero((np.diff(off) != 0) | (np.diff(ii) != 1))[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [off.size - 1]))
    lengths = ends - starts + 1
    return lengths[lengths >= l_min]


@pytest.mark.baseline_kernels
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 400),
    m=st.integers(1, 3),
    epsilon=st.floats(0.01, 0.6),
    l_min=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_line_lengths_match_lexsort_oracle(n, m, epsilon, l_min, seed):
    rec = recurrence_plot(random_cloud(n, m, seed), epsilon, (0, n))
    lengths = diagonal_line_lengths(rec, l_min)
    assert np.array_equal(lengths, _lexsort_line_lengths(rec, l_min))
    assert lengths.dtype == np.int64


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
        recurrence_plot(emb, 0.0, (0, 100))
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
    (lo, hi), clamped = auto_fit_window(curve)
    assert lo == 1
    assert hi <= 60  # the rise ends at t = 50
    assert not clamped
    assert abs(fit_slope(curve, (lo, hi)) - 0.1) < 1e-9


def test_auto_window_flat_curve_reports_no_rise():
    t = np.arange(120)
    rng = np.random.default_rng(1)
    s = -3.0 + 0.01 * rng.standard_normal(120)
    curve = LyapunovCurve(t, s, 0.05, 3, 1, 6, 1.0, 50)
    (lo, hi), clamped = auto_fit_window(curve)
    assert (lo, hi) == (1, 120)  # whole-curve fit, slope near zero
    assert not clamped
    assert abs(fit_slope(curve, (lo, hi))) < 5e-4


def test_fitted_attaches_window_and_slope():
    t = np.arange(50)
    curve = LyapunovCurve(t, 0.3 * t - 9.0, 0.05, 3, 1, 6, 0.5, 50)
    out = fitted(curve)
    assert (out.fit_window, out.fit_window_clamped) == auto_fit_window(curve)
    assert out.fit_window[0] == 1
    assert out.lambda_max == fit_slope(curve, out.fit_window)
    assert abs(out.lambda_max - 0.6) < 1e-12  # 0.3 per sample at dt = 0.5


@pytest.mark.parametrize("rise_samples, clamped", [(2, True), (3, True), (4, False), (20, False)])
def test_fitted_flags_a_window_clamped_to_its_floor(rise_samples, clamped):
    """A rise shorter than 4 points is fitted over (1, 5) all the same; the
    flag is what tells that knee apart from a real linear stretch."""
    t = np.arange(120)
    s = np.minimum(t / rise_samples, 1.0) * 3.0 - 5.0
    curve = LyapunovCurve(t, s, 0.05, 3, 1, 6, 1.0, 50)
    out = fitted(curve)
    assert (out.fit_window, out.fit_window_clamped) == auto_fit_window(curve)
    assert out.fit_window_clamped is clamped
    if clamped:
        assert out.fit_window == (1, 5)


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
    assert usable <= lyapunov.N_REFERENCES  # so every usable point is a reference
    curve = lyapunov_curve(emb, eps, theiler=theiler, t_max=t_max)
    assert 0 < curve.n_references < usable
    assert curve.n_references == expected


def test_tiny_radius_raises_neighborhood_error():
    rng = np.random.default_rng(5)
    series = TimeSeries(rng.random(500), 1.0)
    emb = delay_embed(series, 3, 1)
    with pytest.raises(NeighborhoodError):
        lyapunov_curve(emb, 1e-12, theiler=2, t_max=10)


@pytest.mark.parametrize("t_max", [None, 3])
def test_scan_fails_radii_with_zero_divergence(tiled_period, t_max):
    # below the phases' spacing every neighbor is in its reference's phase
    with pytest.raises(NeighborhoodError, match=r"^every radius failed \(m = 3, epsilon = 0.01: "
                                                r"zero divergence at all but 0 offsets;") as info:
        lyapunov_scan(tiled_period, epsilons=(0.01, 0.02), t_max=t_max)
    assert str(info.value).count("zero divergence at all but 0 offsets") == 6


def test_scan_leaves_a_zero_divergence_radius_out_of_lambda(tiled_period):
    # 0.04 reaches the neighboring phases, whose futures part
    scan = lyapunov_scan(tiled_period)
    assert [(c.m, c.epsilon) for c in scan.curves] == [(3, 0.04), (4, 0.04), (5, 0.04)]
    assert scan.lambda_by_m == {c.m: c.lambda_max for c in scan.curves}


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


@pytest.mark.baseline_kernels
@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 64), data=st.data())
def test_thin_positions_equal_linspace(k, data):
    # the batched positions _block_neighbors thins oversized neighborhoods to
    sizes = np.array(data.draw(st.lists(st.integers(k + 1, 10**6), min_size=1, max_size=8)))
    pos = np.linspace(0, sizes - 1, k, axis=1).astype(np.int64)
    assert pos.shape == (sizes.size, k)
    for n, row in zip(sizes, pos):
        assert np.array_equal(row, np.linspace(0, n - 1, k).astype(np.int64))
        assert np.all(np.diff(row) > 0)  # so np.unique would keep every position


def _counts(n_ref, max_neighbors, **more):
    """Context in which curves take n_ref references and follow at most
    max_neighbors neighbors each."""
    return mock.patch.multiple(lyapunov, N_REFERENCES=n_ref, MAX_NEIGHBORS=max_neighbors,
                               **more)


def _curve_per_radius_tree(emb, epsilon, theiler, t_max, n_ref=2000, max_neighbors=64):
    """The divergence curve with its own k-d tree and an index gather
    track[nb + offsets] per reference: the oracle for lyapunov_curve."""
    points = emb.points
    track = emb.scalar_track
    usable = len(emb) - t_max
    tree = cKDTree(points[:usable])
    if n_ref >= usable:
        refs = np.arange(usable)
    else:
        refs = np.unique(np.linspace(0, usable - 1, n_ref).astype(np.int64))
    neighbor_lists = tree.query_ball_point(points[refs], epsilon, workers=-1)
    offsets = np.arange(t_max + 1)
    sums = np.zeros(t_max + 1)
    counts = np.zeros(t_max + 1, dtype=np.int64)
    n_used = 0
    for ref, raw in zip(refs, neighbor_lists):
        nb = np.asarray(raw, dtype=np.int64)
        nb = nb[np.abs(nb - ref) > theiler]
        if nb.size == 0:
            continue
        n_used += 1
        if nb.size > max_neighbors:
            nb.sort()
            pick = np.linspace(0, nb.size - 1, max_neighbors).astype(np.int64)
            nb = nb[np.unique(pick)]
        gaps = np.abs(track[nb[:, None] + offsets] - track[ref + offsets])
        mean_gap = gaps.mean(axis=0)
        ok = mean_gap > 0.0
        sums[ok] += np.log(mean_gap[ok])
        counts[ok] += 1
    if n_used == 0:
        raise NeighborhoodError(
            f"no neighborhood within epsilon = {epsilon:g}; increase epsilon"
        )
    defined = counts > 0
    return LyapunovCurve(
        offsets[defined], sums[defined] / counts[defined], epsilon, emb.m,
        emb.delay, theiler, emb.dt, n_used,
    )


def _scan_per_radius_tree(series, m_values, epsilons, theiler=None, t_max=None,
                          n_ref=2000, max_neighbors=64):
    """lyapunov_scan built on the per-radius oracle curve: (curves, lambda_by_m)."""
    normed = normalize_series(series)
    delay = autocorr_delay(normed)
    if t_max is None:
        t_max = min(600, max(30, (len(normed) - 2) // 4))
    curves, by_m = [], {m: [] for m in m_values}
    for m in m_values:
        emb = delay_embed(normed, m, delay)
        th = theiler if theiler is not None else 2 * delay * m
        for eps in epsilons:
            try:
                curve = _curve_per_radius_tree(emb, eps, th, t_max, n_ref, max_neighbors)
            except NeighborhoodError:
                continue
            curve = fitted(curve)
            curves.append(curve)
            by_m[m].append(curve.lambda_max)
    return curves, {m: float(np.mean(v)) for m, v in by_m.items() if v}


def assert_same_curve(curve, expected):
    assert np.array_equal(curve.t_offsets, expected.t_offsets)
    assert np.array_equal(curve.s_values, expected.s_values)
    assert (curve.m, curve.epsilon, curve.theiler, curve.n_references) == (
        expected.m, expected.epsilon, expected.theiler, expected.n_references)
    assert curve.fit_window == expected.fit_window
    assert curve.lambda_max == expected.lambda_max


def assert_scan_matches_oracle(series, m_values, epsilons, n_ref, max_neighbors, **kwargs):
    curves, by_m = _scan_per_radius_tree(series, m_values, epsilons, n_ref=n_ref,
                                         max_neighbors=max_neighbors, **kwargs)
    with _counts(n_ref, max_neighbors):
        if not curves:
            with pytest.raises(NeighborhoodError):
                lyapunov_scan(series, m_values, epsilons, **kwargs)
            return
        scan = lyapunov_scan(series, m_values, epsilons, **kwargs)
    assert len(scan.curves) == len(curves)
    for curve, expected in zip(scan.curves, curves):
        assert_same_curve(curve, expected)
    assert scan.lambda_by_m == by_m
    lams = list(by_m.values())
    assert scan.lambda_max == float(np.mean(lams))
    assert scan.spread == max(lams) - min(lams)


@pytest.mark.baseline_kernels
@pytest.mark.parametrize(
    "series", [logistic_series(4000), sine_series(4000)], ids=["logistic", "sine"]
)
def test_scan_equals_per_radius_tree_oracle(series):
    # max_neighbors = 8 makes most neighborhoods thin
    assert_scan_matches_oracle(series, (2, 3, 4), (0.01, 0.02, 0.05), n_ref=2000,
                               max_neighbors=8)


@pytest.mark.baseline_kernels
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(40, 600),
    m=st.integers(1, 4),
    epsilon=st.floats(0.02, 0.6),
    theiler=st.integers(0, 30),
    t_max=st.integers(1, 30),
    n_ref=st.integers(2, 300),
    max_neighbors=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_curve_equals_oracle_on_random_clouds(
    n, m, epsilon, theiler, t_max, n_ref, max_neighbors, seed
):
    points = np.random.default_rng(seed).random((n, m))
    emb = EmbeddedSeries(points, m, 1, 0.5)
    try:
        expected = _curve_per_radius_tree(emb, epsilon, theiler, t_max, n_ref, max_neighbors)
    except NeighborhoodError:
        with pytest.raises(NeighborhoodError), _counts(n_ref, max_neighbors):
            lyapunov_curve(emb, epsilon, theiler, t_max)
        return
    with _counts(n_ref, max_neighbors):
        curve = lyapunov_curve(emb, epsilon, theiler, t_max)
    assert_same_curve(curve, expected)


@pytest.mark.baseline_kernels
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(80, 500),
    m_values=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    epsilons=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3, unique=True),
    theiler=st.one_of(st.none(), st.integers(0, 20)),
    t_max=st.integers(6, 30),
    max_neighbors=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_equals_oracle_on_random_series(
    n, m_values, epsilons, theiler, t_max, max_neighbors, seed
):
    series = TimeSeries(np.random.default_rng(seed).random(n), 1.0)
    assert_scan_matches_oracle(series, tuple(m_values), tuple(epsilons), n_ref=100,
                               max_neighbors=max_neighbors, theiler=theiler, t_max=t_max)


@pytest.mark.baseline_kernels
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(40, 400),
    m=st.integers(1, 3),
    epsilon=st.floats(0.02, 0.4),
    theiler=st.integers(0, 30),
    t_max=st.integers(1, 20),
    max_neighbors=st.integers(1, 12),
    block=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_curve_equals_oracle_across_query_blocks(
    n, m, epsilon, theiler, t_max, max_neighbors, block, seed
):
    # small query blocks put many block boundaries, and blocks whose
    # references all lost their neighbors, inside one curve
    points = np.random.default_rng(seed).random((n, m))
    emb = EmbeddedSeries(points, m, 1, 0.5)
    try:
        expected = _curve_per_radius_tree(emb, epsilon, theiler, t_max, n, max_neighbors)
    except NeighborhoodError:
        return
    with _counts(n, max_neighbors, _QUERY_BLOCK=block):
        curve = lyapunov_curve(emb, epsilon, theiler, t_max)
    assert_same_curve(curve, expected)


@pytest.mark.baseline_kernels
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(80, 400),
    m_values=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    epsilons=st.lists(st.floats(0.02, 0.4), min_size=1, max_size=3, unique=True),
    t_max=st.integers(6, 20),
    max_neighbors=st.integers(1, 12),
    block=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_equals_oracle_across_query_blocks(
    n, m_values, epsilons, t_max, max_neighbors, block, seed
):
    # many blocks per curve, so the next radius and the next m start while
    # the last blocks of a curve are still queued for the gather
    series = TimeSeries(np.random.default_rng(seed).random(n), 1.0)
    with mock.patch.object(lyapunov, "_QUERY_BLOCK", block):
        assert_scan_matches_oracle(series, tuple(m_values), tuple(epsilons), n_ref=n,
                                   max_neighbors=max_neighbors, t_max=t_max)


@pytest.mark.baseline_kernels
def test_scan_is_independent_of_gather_timing():
    # every other gather stalls, so blocks of several curves queue behind it;
    # the sums must still be formed in reference order
    real, calls = lyapunov._add_block, []

    def uneven(*args):
        calls.append(None)
        if len(calls) % 2:
            time.sleep(0.003)
        real(*args)

    with mock.patch.multiple(lyapunov, _add_block=uneven, _QUERY_BLOCK=16):
        assert_scan_matches_oracle(logistic_series(1500), (2, 3), (0.02, 0.05), n_ref=300,
                                   max_neighbors=8, t_max=20)
    assert len(calls) == 2 * 2 * 19  # 300 references in blocks of 16, 4 curves


class GatherFault(Exception):
    pass


def test_no_thread_outlives_the_scan():
    series = logistic_series(3000)
    grid = {"m_values": (2, 3), "t_max": 20}
    before = threading.enumerate()
    lyapunov_scan(series, epsilons=(0.02, 0.05), **grid)
    assert threading.enumerate() == before
    with pytest.raises(NeighborhoodError, match="every radius left all neighborhoods empty"):
        lyapunov_scan(series, epsilons=(1e-12, 1e-11), **grid)
    assert threading.enumerate() == before

    real, calls = lyapunov._add_block, []

    def fails_third(*args):
        calls.append(None)
        if len(calls) == 3:
            raise GatherFault("third gather")
        real(*args)

    with mock.patch.multiple(lyapunov, _add_block=fails_third, _QUERY_BLOCK=64), \
            pytest.raises(GatherFault, match="third gather"):
        lyapunov_scan(series, epsilons=(0.02, 0.05), **grid)
    assert threading.enumerate() == before
    # the failure stops the scan: at most the block queued behind it is gathered
    assert 3 <= len(calls) <= 4


def test_scan_builds_one_tree_per_m_and_one_at_a_time(monkeypatch):
    built = []  # weak references to every tree the scan built

    class CountedTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            assert all(ref() is None for ref in built), "two trees alive at once"
            super().__init__(data, *args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(lyapunov, "cKDTree", CountedTree)
    m_values, epsilons = (2, 3, 4), (0.01, 0.02, 0.04)
    scan = lyapunov_scan(logistic_series(4000), m_values, epsilons)
    assert len(scan.curves) == len(m_values) * len(epsilons)
    assert len(built) == len(m_values)


def test_neighbor_lists_are_held_one_block_at_a_time():
    # dense 1-D cloud of four query blocks: every reference has hundreds of
    # neighbors, so the lists of all references at once take over 10 MB
    t_max, eps = 10, 0.05
    n = 4 * lyapunov._QUERY_BLOCK + t_max
    emb = delay_embed(TimeSeries(np.random.default_rng(11).random(n), 1.0), 1, 1)
    queries = emb.points[: len(emb) - t_max]
    tree = cKDTree(queries)
    tracemalloc.start()
    try:
        all_lists = tree.query_ball_point(queries, eps)
        held = tracemalloc.get_traced_memory()[0]
        del all_lists
        tracemalloc.reset_peak()
        with mock.patch.object(lyapunov, "N_REFERENCES", n):
            lyapunov_curve(emb, eps, theiler=2, t_max=t_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held / 2


@pytest.mark.parametrize("grid", [
    {"m_values": (3, 3), "epsilons": (0.05,)},
    {"m_values": (3,), "epsilons": (0.05, 0.02, 0.05)},
], ids=["repeated_m", "repeated_epsilon"])
def test_scan_rejects_a_repeated_grid_value(grid):
    # a repeated (m, epsilon) would count one curve twice in lambda
    with pytest.raises(ValueError, match="must not repeat"):
        lyapunov_scan(logistic_series(2000), t_max=20, **grid)


def test_scan_rejects_t_max_without_two_usable_points():
    series = logistic_series(200)
    n_points = len(series) - autocorr_delay(normalize_series(series))  # embedded at m = 2
    with pytest.raises(ValueError, match="fewer than two usable points"):
        lyapunov_scan(series, m_values=(2,), t_max=n_points - 1)
    scan = lyapunov_scan(series, m_values=(2,), epsilons=(2.0,), theiler=0,
                         t_max=n_points - 2)
    assert scan.curves[0].n_references == 2


@pytest.mark.parametrize("setting, message", [
    ({"m_values": (3, 0)}, "m must be >= 1"),
    ({"epsilons": (0.01, 0.02, 0.04, 0)}, "epsilon must be finite and positive"),
    ({"epsilons": (0.01, -0.01)}, "epsilon must be finite and positive"),
    ({"epsilons": (0.01, np.inf)}, "epsilon must be finite and positive"),
    ({"epsilons": (np.nan,)}, "epsilon must be finite and positive"),
    ({"theiler": -1}, "theiler must be >= 0"),
    ({"t_max": 2}, "t_max must be >= 3"),
    ({"t_max": -5}, "t_max must be >= 3"),
    ({"m_values": ()}, "must not be empty"),
    ({"epsilons": ()}, "must not be empty"),
], ids=["m_0", "epsilon_0", "epsilon_negative", "epsilon_inf", "epsilon_nan", "theiler_negative",
        "t_max_2", "t_max_negative", "m_values_empty", "epsilons_empty"])
def test_scan_rejects_a_bad_setting_before_any_work(monkeypatch, setting, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the scan started work before rejecting a setting")

    for name in ("normalize_series", "autocorr_delay", "cKDTree"):
        monkeypatch.setattr(lyapunov, name, no_work)
    with pytest.raises(ValueError, match=message):
        lyapunov_scan(logistic_series(2000), **setting)


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
