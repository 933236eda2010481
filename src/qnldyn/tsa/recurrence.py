"""Recurrence plots over a window of embedded points.

A pair (i, j) recurs when the Euclidean distance between the embedded
points is at most epsilon.  The relation is symmetric and reflexive, so
only off-diagonal pairs with i < j are stored; the main diagonal is
implied.  Diagonal-line structure (spacings between strong diagonals,
lengths of unbroken segments) separates periodic, quasi-periodic, and
mixing signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .embedding import EmbeddedSeries

#: Default number of embedded points examined when no window is given.
DEFAULT_WINDOW = 5000


@dataclass(frozen=True)
class RecurrenceData:
    """Sparse symmetric recurrence relation on a window of points."""

    n_points: int
    epsilon: float
    ii: np.ndarray  # i < j, lexicographically sorted
    jj: np.ndarray
    window_start: int = 0
    origin: dict | None = None

    def __post_init__(self):
        ii = np.asarray(self.ii, dtype=np.int64)
        jj = np.asarray(self.jj, dtype=np.int64)
        if ii.ndim != 1 or ii.shape != jj.shape:
            raise ValueError("ii and jj must be 1-D arrays of equal length")
        if not (np.all(ii >= 0) and np.all(ii < jj) and np.all(jj < self.n_points)):
            raise ValueError("pairs must satisfy 0 <= i < j < n_points")
        keys = ii * self.n_points + jj
        if not np.all(keys[1:] > keys[:-1]):
            raise ValueError("pairs must be strictly increasing in (i, j)")
        ii.setflags(write=False)
        jj.setflags(write=False)
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "_keys", keys)

    @property
    def n_pairs(self) -> int:
        """Stored off-diagonal pairs (each stands for itself and its mirror)."""
        return self.ii.size

    def contains(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n_points and 0 <= j < self.n_points):
            raise IndexError("index outside the window")
        if i == j:
            return True
        lo, hi = (i, j) if i < j else (j, i)
        key = lo * self.n_points + hi
        pos = np.searchsorted(self._keys, key)
        return bool(pos < self._keys.size and self._keys[pos] == key)

    def recurrence_rate(self) -> float:
        return (2.0 * self.n_pairs + self.n_points) / self.n_points**2


def recurrence_plot(
    emb: EmbeddedSeries,
    epsilon: float,
    window: tuple[int, int] | None = None,
) -> RecurrenceData:
    """Recurrence relation of emb.points[start:stop] at threshold epsilon.

    Without an explicit window the first DEFAULT_WINDOW points are used;
    pair search runs through a k-d tree, so moderate windows stay far
    below the naive quadratic cost.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if window is None:
        window = (0, min(DEFAULT_WINDOW, len(emb)))
    start, stop = window
    if not (0 <= start < stop <= len(emb)):
        raise ValueError(f"window {window} outside the embedded range")
    pts = emb.points[start:stop]
    pairs = cKDTree(pts).query_pairs(epsilon, output_type="ndarray")
    n = stop - start
    ii, jj = np.divmod(np.sort(pairs[:, 0] * n + pairs[:, 1]), n)
    meta = dict(emb.origin)
    meta.update(
        {
            "epsilon": repr(epsilon),
            "m": str(emb.m),
            "delay": str(emb.delay),
            "window_start": str(start),
            "window_stop": str(stop),
        }
    )
    return RecurrenceData(n, epsilon, ii, jj, start, meta)


def diagonal_profile(rec: RecurrenceData) -> np.ndarray:
    """Recurrent-point count per diagonal offset k = j - i, k >= 1."""
    return np.bincount(rec.jj - rec.ii, minlength=rec.n_points)[: rec.n_points]


def diagonal_line_lengths(rec: RecurrenceData, l_min: int = 2) -> np.ndarray:
    """Lengths of unbroken diagonal segments off the main diagonal.

    A segment is a maximal run of consecutive recurrent (i, i+k) at fixed
    offset k >= 1; only runs of at least l_min points are reported.
    """
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


def mean_diagonal_length(rec: RecurrenceData, l_min: int = 2) -> float:
    lengths = diagonal_line_lengths(rec, l_min)
    if lengths.size == 0:
        return 0.0
    return float(lengths.mean())


def diagonal_spacings(
    rec: RecurrenceData, occupancy_frac: float = 0.5
) -> np.ndarray:
    """Gaps between the strong diagonals of the plot.

    Offsets whose occupancy (count normalized by diagonal length) reaches
    occupancy_frac of the best one are grouped into contiguous clusters;
    the occupancy-weighted cluster centers are the diagonal positions and
    their consecutive differences are returned.
    """
    prof = diagonal_profile(rec).astype(float)
    k = np.arange(rec.n_points)
    lengths = rec.n_points - k
    occupancy = np.zeros_like(prof)
    occupancy[1:] = prof[1:] / lengths[1:]
    top = occupancy.max()
    if top <= 0.0:
        return np.empty(0)
    strong = np.nonzero(occupancy >= occupancy_frac * top)[0]
    cluster_edges = np.nonzero(np.diff(strong) > 1)[0]
    starts = np.concatenate(([0], cluster_edges + 1))
    ends = np.concatenate((cluster_edges, [strong.size - 1]))
    centers = np.array(
        [
            np.average(strong[a : b + 1], weights=occupancy[strong[a : b + 1]])
            for a, b in zip(starts, ends)
        ]
    )
    if centers.size < 2:
        return np.empty(0)
    return np.diff(centers)


def dominant_peak_count(
    spacings: np.ndarray, tol_frac: float = 0.05, min_share: float = 0.2
) -> int:
    """Number of well-populated spacing families.

    Sorted spacings are split wherever neighbors differ by more than
    max(2 samples, tol_frac * median); families holding at least
    min_share of all spacings count as dominant.
    """
    spacings = np.asarray(spacings, dtype=float)
    if spacings.size == 0:
        return 0
    srt = np.sort(spacings)
    tol = max(2.0, tol_frac * float(np.median(srt)))
    splits = np.nonzero(np.diff(srt) > tol)[0]
    starts = np.concatenate(([0], splits + 1))
    ends = np.concatenate((splits, [srt.size - 1]))
    sizes = ends - starts + 1
    return int(np.count_nonzero(sizes >= min_share * srt.size))
