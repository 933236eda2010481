"""Maximal Lyapunov exponent from neighborhood divergence curves.

For each reference point, the points of its epsilon-neighborhood (full
embedding-vector distance, Theiler-excluded) are followed forward; the
log of the mean absolute gap in the final scalar coordinate, averaged
over references,

    S(t) = < ln( (1/|U_n|) sum_{n' in U_n} |s_{n+t} - s_{n'+t}| ) >_n,

grows linearly in t at the rate of the maximal exponent before it
saturates at the attractor size.  A least-squares slope over the linear
stretch, per unit time, is the estimate (Kantz, Phys. Lett. A 185, 77
(1994)).

The scan builds one k-d tree per embedding dimension m and queries it at
every radius; only one tree is alive at a time.  The trees take
embedding.TREE_OPTIONS (midpoint splits, 32-point leaves), which build and
query faster and return the same sorted neighbor lists.  References are
processed in blocks of _QUERY_BLOCK, one pass per block:

  - the block's neighbor lists are flattened into one index array and
    dropped, so only one block's neighbors are held;
  - the Theiler cut and the even thinning to MAX_NEIGHBORS are array
    operations over the whole block; the thinning picks the positions
    np.linspace(0, n - 1, k).astype(np.int64) would;
  - each reference's gaps are one fancy index into a sliding window over
    the scalar track (row n holds s_n, ..., s_{n+t_max}), summed into that
    reference's row;
  - the rows are divided by their sizes, logged, and added to the running
    sum in reference order.

So the gathers are still made one reference at a time, and every curve is
bit for bit what a per-reference loop with gaps.mean(axis=0) and
sums += log(mean) gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from ..errors import NeighborhoodError
from ..series import TimeSeries, normalize_series
from .embedding import TREE_OPTIONS, EmbeddedSeries, autocorr_delay, delay_embed

#: Default embedding dimensions scanned for slope agreement.
SCAN_DIMENSIONS = (3, 4, 5)

#: Default neighborhood radii, as fractions of the (normalized) range.
SCAN_EPSILONS = (0.01, 0.02, 0.04)

#: Reference points per curve, taken evenly across the usable points.
N_REFERENCES = 2000

#: Neighbors followed per reference; larger neighborhoods are thinned evenly.
MAX_NEIGHBORS = 64

#: Fewest curve points a slope is fitted over.
MIN_FIT_POINTS = 4

#: Reference points per k-d tree query; their neighbor lists, not the tree,
#: set the scan's peak memory.
_QUERY_BLOCK = 1 << 9


@dataclass(frozen=True)
class LyapunovCurve:
    """Divergence curve S(t) with the parameters that produced it."""

    t_offsets: np.ndarray  # sample offsets with a defined average
    s_values: np.ndarray
    epsilon: float
    m: int
    delay: int
    theiler: int
    dt: float
    n_references: int  # references that kept a neighbor, i.e. contributed
    lambda_max: float | None = None
    fit_window: tuple[int, int] | None = None
    # True when auto_fit_window raised the window's end to cover MIN_FIT_POINTS
    # points: the rise was shorter, so the slope is a knee, not a stretch.
    fit_window_clamped: bool | None = None

    def __post_init__(self):
        t = np.asarray(self.t_offsets, dtype=np.int64)
        s = np.asarray(self.s_values, dtype=float)
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "t_offsets", t)
        object.__setattr__(self, "s_values", s)
        if t.size != s.size:
            raise ValueError("t_offsets and s_values must align")


def _check_settings(epsilons, theiler: int | None, t_max: int | None) -> None:
    """Reject a radius that is not finite and positive, a negative Theiler
    window or a horizon below 1; None stands for a value the scan picks
    itself."""
    if not all(0 < eps < np.inf for eps in epsilons):
        raise ValueError("epsilon must be finite and positive")
    if theiler is not None and theiler < 0:
        raise ValueError("theiler must be >= 0")
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be >= 1")


def _usable_points(emb: EmbeddedSeries, t_max: int) -> int:
    """Points with t_max future samples; at least two are needed."""
    usable = len(emb) - t_max
    if usable < 2:
        raise ValueError("t_max leaves fewer than two usable points")
    return usable


def _block_neighbors(tree, points, block, epsilon, theiler):
    """Neighborhoods of one block of references, as flat arrays.

    Returns (refs, bounds, nb): the references that kept a neighbor outside
    the Theiler window, and the neighbors of refs[r] in nb[bounds[r]:
    bounds[r + 1]], ascending and thinned evenly to MAX_NEIGHBORS.
    """
    lists = tree.query_ball_point(points[block], epsilon, workers=-1, return_sorted=True)
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    nb = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(sizes.sum()))
    del lists
    # Theiler cut: |n' - n| > theiler.  The owner array is gone before the
    # kept neighbors are copied out.
    gap = np.repeat(block, sizes)
    np.subtract(nb, gap, out=gap)
    np.abs(gap, out=gap)
    keep = gap > theiler
    del gap
    filled = sizes > 0
    starts = np.cumsum(sizes) - sizes
    sizes[filled] = np.add.reduceat(keep, starts[filled], dtype=np.int64)
    nb = nb[keep]
    del keep
    # Even thinning of the oversized neighborhoods, all at once.
    thin = sizes > MAX_NEIGHBORS
    if thin.any():
        starts = np.cumsum(sizes) - sizes
        pick = np.repeat(~thin, sizes)
        # row r is np.linspace(0, sizes[r] - 1, MAX_NEIGHBORS).astype(np.int64) bit for
        # bit, strictly increasing: numpy rounds a batch differently from single rows
        # only when some step is 0, which sizes > MAX_NEIGHBORS excludes
        pos = np.linspace(0, sizes[thin] - 1, MAX_NEIGHBORS, axis=1).astype(np.int64)
        pos += starts[thin, None]
        pick[pos.ravel()] = True
        nb = nb[pick]
        np.minimum(sizes, MAX_NEIGHBORS, out=sizes)
    used = sizes > 0
    sizes = sizes[used]
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return block[used], bounds, nb


def _add_block(sums, counts, win, refs, bounds, nb) -> int:
    """Add one block's log mean gaps to sums (and their count to counts) in
    place; return the number of references added.

    rows[0] carries the running sum and rows[1 + r] reference r's summed
    gaps, then their mean, then its log (0 where the mean is 0, which adds
    nothing).  Along axis 0 the reduction adds row after row, so every sum
    is formed in reference order, as one += per reference would form it.
    """
    rows = np.empty((refs.size + 1, sums.size))
    for row, ref, a, b in zip(rows[1:], refs.tolist(), bounds[:-1].tolist(),
                              bounds[1:].tolist()):
        gaps = win[nb[a:b]]
        gaps -= win[ref]
        np.abs(gaps, out=gaps)
        np.add.reduce(gaps, axis=0, out=row)
    means = rows[1:]
    means /= np.diff(bounds)[:, None]  # the division gaps.mean(axis=0) makes
    ok = means > 0.0
    counts += np.count_nonzero(ok, axis=0)
    means[~ok] = 1.0
    np.log(means, out=means)
    rows[0] = sums
    np.add.reduce(rows, axis=0, out=sums)
    return refs.size


def lyapunov_curve(
    emb: EmbeddedSeries,
    epsilon: float,
    theiler: int,
    t_max: int,
    tree: cKDTree | None = None,
) -> LyapunovCurve:
    """Average log divergence of epsilon-neighborhoods over t_max steps.

    N_REFERENCES reference points are taken evenly across the usable range
    (those with t_max future samples), or all of them if there are fewer.
    Oversized neighborhoods are thinned evenly to MAX_NEIGHBORS members,
    which keeps densely recurrent signals cheap without biasing the
    average.  Offsets where no reference kept a positive mean gap are
    dropped.  n_references counts the references
    that kept a neighbor outside the Theiler window; if none did, the
    radius was too small.  A caller scanning several radii at one m may
    pass tree, a cKDTree over emb.points[:len(emb) - t_max]; a tree over
    any other number of points is rejected.  Without one the curve builds
    its own.
    """
    _check_settings((epsilon,), theiler, t_max)
    points = emb.points
    usable = _usable_points(emb, t_max)
    if tree is None:
        tree = cKDTree(points[:usable], **TREE_OPTIONS)
    elif tree.n != usable:
        raise ValueError(
            f"tree indexes {tree.n} points; it must index the {usable} points "
            f"with t_max = {t_max} future samples"
        )
    # Every usable point when there are no more than N_REFERENCES of them.
    refs = np.unique(np.linspace(0, usable - 1, N_REFERENCES).astype(np.int64))
    win = sliding_window_view(np.ascontiguousarray(emb.scalar_track), t_max + 1)
    offsets = np.arange(t_max + 1)
    sums = np.zeros(t_max + 1)
    counts = np.zeros(t_max + 1, dtype=np.int64)
    n_used = 0
    for lo in range(0, refs.size, _QUERY_BLOCK):
        block = _block_neighbors(tree, points, refs[lo : lo + _QUERY_BLOCK], epsilon,
                                 theiler)
        n_used += _add_block(sums, counts, win, *block)
        del block  # freed before the next block's query
    if n_used == 0:
        raise NeighborhoodError(
            f"no neighborhood within epsilon = {epsilon:g}; increase epsilon"
        )
    defined = counts > 0
    return LyapunovCurve(
        t_offsets=offsets[defined],
        s_values=sums[defined] / counts[defined],
        epsilon=epsilon,
        m=emb.m,
        delay=emb.delay,
        theiler=theiler,
        dt=emb.dt,
        n_references=n_used,
    )


def fit_slope(curve: LyapunovCurve, window: tuple[int, int]) -> float:
    """Least-squares slope of S over the index window, per unit time."""
    lo, hi = window
    t = curve.t_offsets[lo:hi] * curve.dt
    s = curve.s_values[lo:hi]
    if t.size < MIN_FIT_POINTS:
        raise ValueError(f"fit window must cover at least {MIN_FIT_POINTS} defined points")
    return float(np.polyfit(t, s, 1)[0])


#: Share of the rise to saturation the automatic fit window covers: the last
#: quarter bends over into the plateau and would pull the slope down.
RISE_FRAC = 0.75


def auto_fit_window(curve: LyapunovCurve) -> tuple[tuple[int, int], bool]:
    """Index window over the initial linear rise of the curve, and whether
    its end was raised to cover MIN_FIT_POINTS points.

    Starts after offset zero (whose average reflects the radius, not the
    dynamics) and ends where the curve has covered RISE_FRAC of the way
    to its saturation level, estimated from the final third.  A raised
    end means the rise was shorter than the floor, so the slope is a knee.
    """
    t = curve.t_offsets
    s = curve.s_values
    if t.size < 6:
        return (0, t.size), False
    lo = 1 if t[0] == 0 else 0
    tail = s[-max(4, s.size // 3):]
    level = float(np.median(tail))
    base = float(s[lo])
    rise = level - base
    # A periodic signal produces a level curve that merely wobbles; fitting
    # a flank of the wobble would fake an exponent.  Demand a rise that
    # clears the tail's own peak-to-peak band before trusting one.
    if rise <= float(tail.max() - tail.min()) or rise <= 0.0:
        return (lo, s.size), False
    target = base + RISE_FRAC * rise
    above = np.nonzero(s[lo:] >= target)[0]
    hi = lo + int(above[0]) + 1 if above.size else s.size
    floor = lo + MIN_FIT_POINTS
    return (lo, min(max(hi, floor), s.size)), hi < floor


def fitted(curve: LyapunovCurve) -> LyapunovCurve:
    """Attach the slope over auto_fit_window's window, the window and whether
    it was clamped to its floor to the curve."""
    window, clamped = auto_fit_window(curve)
    return replace(curve, lambda_max=fit_slope(curve, window), fit_window=window,
                   fit_window_clamped=clamped)


@dataclass(frozen=True)
class LyapunovScan:
    """Curves and fitted slopes across embedding dimensions and radii."""

    curves: tuple[LyapunovCurve, ...]
    lambda_by_m: dict
    lambda_max: float
    spread: float
    delay: int


def lyapunov_scan(
    series: TimeSeries,
    m_values: tuple[int, ...] = SCAN_DIMENSIONS,
    epsilons: tuple[float, ...] = SCAN_EPSILONS,
    theiler: int | None = None,
    t_max: int | None = None,
) -> LyapunovScan:
    """Full estimation pipeline on a raw series.

    The series is mapped onto [0, 1] (slopes are scale-invariant, radii
    become comparable across systems), embedded at each m with the
    autocorrelation delay, and each (m, epsilon) curve is fitted over its
    linear rise; the radii at one m share one k-d tree.  Per-dimension
    estimates are averaged over radii; their overall mean and spread
    (max - min across m) are reported.  m_values and epsilons must be
    non-empty and must not repeat.  Every setting is checked before any work
    is done.
    """
    if not m_values or not epsilons:
        raise ValueError(f"m_values {m_values} and epsilons {epsilons} must not be empty")
    if len(set(m_values)) < len(m_values) or len(set(epsilons)) < len(epsilons):
        raise ValueError(f"m_values {m_values} and epsilons {epsilons} must not repeat")
    if any(m < 1 for m in m_values):
        raise ValueError("m must be >= 1")
    if t_max is not None and t_max < MIN_FIT_POINTS - 1:
        raise ValueError(f"t_max must be >= {MIN_FIT_POINTS - 1}: offsets 0..t_max must "
                         f"cover the {MIN_FIT_POINTS} points a fit needs")
    _check_settings(epsilons, theiler, t_max)
    normed = normalize_series(series)
    delay = autocorr_delay(normed)
    if t_max is None:
        t_max = min(600, max(30, (len(normed) - 2) // 4))
    curves = []
    failures = []
    for m in m_values:
        emb = delay_embed(normed, m, delay)
        th = theiler if theiler is not None else 2 * delay * m
        tree = cKDTree(emb.points[: _usable_points(emb, t_max)], **TREE_OPTIONS)
        for eps in epsilons:
            try:
                curve = lyapunov_curve(emb, eps, th, t_max, tree=tree)
            except NeighborhoodError as exc:
                failures.append(str(exc))
                continue
            curves.append(fitted(curve))
        del tree  # freed before the next m builds, so one tree is alive at a time
    if not curves:
        raise NeighborhoodError(
            "every radius left all neighborhoods empty; increase epsilons "
            f"({'; '.join(failures)})"
        )
    by_m: dict[int, list[float]] = {}
    for curve in curves:
        by_m.setdefault(curve.m, []).append(curve.lambda_max)
    lambda_by_m = {m: float(np.mean(v)) for m, v in by_m.items()}
    values = np.array(list(lambda_by_m.values()))
    return LyapunovScan(
        curves=tuple(curves),
        lambda_by_m=lambda_by_m,
        lambda_max=float(values.mean()),
        spread=float(values.max() - values.min()),
        delay=delay,
    )
