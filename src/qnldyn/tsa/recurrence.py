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

from .embedding import TREE_OPTIONS, EmbeddedSeries


#: Stored pairs split into (i, j) indices per block by the diagonal statistics.
_LINE_BLOCK = 1 << 16


@dataclass(frozen=True, init=False, eq=False)
class RecurrenceData:
    """Sparse symmetric recurrence relation on a window of points.

    The stored pairs (i < j) are one strictly increasing int64 array of
    keys i * n_points + j, 8 bytes per pair; `ii` and `jj` are derived from
    it on access, and consumers walk it in blocks (`index_blocks`).
    """

    n_points: int
    epsilon: float
    keys: np.ndarray
    window_start: int

    def __init__(self, n_points, epsilon, ii, jj, window_start=0):
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        if ii.ndim != 1 or ii.shape != jj.shape:
            raise ValueError("ii and jj must be 1-D arrays of equal length")
        if not (np.all(ii >= 0) and np.all(ii < jj) and np.all(jj < n_points)):
            raise ValueError("pairs must satisfy 0 <= i < j < n_points")
        keys = ii * n_points + jj
        if not np.all(keys[1:] > keys[:-1]):
            raise ValueError("pairs must be strictly increasing in (i, j)")
        self._store(n_points, epsilon, keys, window_start)

    @classmethod
    def from_keys(cls, n_points, epsilon, keys, window_start=0):
        """The relation of keys i * n_points + j, taken as they are (not copied).

        Unchecked: the caller guarantees 0 <= i < j < n_points and strictly
        increasing keys, as `recurrence_plot` does.
        """
        rec = cls.__new__(cls)
        rec._store(n_points, epsilon, keys, window_start)
        return rec

    def _store(self, n_points, epsilon, keys, window_start):
        keys.setflags(write=False)
        for name, value in (("n_points", n_points), ("epsilon", epsilon),
                            ("keys", keys), ("window_start", window_start)):
            object.__setattr__(self, name, value)

    @property
    def ii(self) -> np.ndarray:
        """Row index i of each stored pair, in key order (read-only)."""
        ii = self.keys // self.n_points
        ii.setflags(write=False)
        return ii

    @property
    def jj(self) -> np.ndarray:
        """Column index j > i of each stored pair, in key order (read-only)."""
        jj = self.keys % self.n_points
        jj.setflags(write=False)
        return jj

    def index_blocks(self, size: int):
        """Yield (ii, jj) of consecutive stored pairs, at most size at a time."""
        for lo in range(0, self.keys.size, size):
            yield np.divmod(self.keys[lo : lo + size], self.n_points)

    @property
    def n_pairs(self) -> int:
        """Stored off-diagonal pairs (each stands for itself and its mirror)."""
        return self.keys.size

    def contains(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n_points and 0 <= j < self.n_points):
            raise IndexError("index outside the window")
        if i == j:
            return True
        lo, hi = (i, j) if i < j else (j, i)
        key = lo * self.n_points + hi
        pos = np.searchsorted(self.keys, key)
        return bool(pos < self.keys.size and self.keys[pos] == key)

    def recurrence_rate(self) -> float:
        return (2.0 * self.n_pairs + self.n_points) / self.n_points**2


def recurrence_plot(
    emb: EmbeddedSeries,
    epsilon: float,
    window: tuple[int, int],
) -> RecurrenceData:
    """Recurrence relation of emb.points[start:stop] at threshold epsilon.

    The caller picks the window (start, stop), 0 <= start < stop <= len(emb);
    pair search runs through a k-d tree, so moderate windows stay far
    below the naive quadratic cost.  The searched (i, j) pairs are folded
    into keys and dropped before the keys are sorted in place, so no later
    step holds more memory than the search did.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    start, stop = window
    if not (0 <= start < stop <= len(emb)):
        raise ValueError(f"window {window} outside the embedded range")
    n = stop - start
    pairs = cKDTree(emb.points[start:stop], **TREE_OPTIONS).query_pairs(
        epsilon, output_type="ndarray")
    keys = pairs[:, 0] * n
    keys += pairs[:, 1]
    del pairs
    keys.sort()
    return RecurrenceData.from_keys(n, epsilon, keys, start)


def diagonal_profile(rec: RecurrenceData) -> np.ndarray:
    """Recurrent-point count per diagonal offset k = j - i, k >= 1."""
    profile = np.zeros(rec.n_points, dtype=np.int64)
    for ii, jj in rec.index_blocks(_LINE_BLOCK):
        profile += np.bincount(jj - ii, minlength=rec.n_points)
    return profile


def _row_bands(rec: RecurrenceData):
    """Yield (r0, r1, ii, jj): the pairs of rows r0 <= i < r1, bands in row order.

    Each band holds about _LINE_BLOCK pairs and ends with a whole row, and
    the next band starts at r1.
    """
    keys, n = rec.keys, rec.n_points
    lo = r0 = 0
    while lo < keys.size:
        r1 = int(keys[min(lo + _LINE_BLOCK, keys.size) - 1]) // n + 1
        hi = int(np.searchsorted(keys, r1 * n))
        yield (r0, r1, *np.divmod(keys[lo:hi], n))
        lo, r0 = hi, r1


def diagonal_line_lengths(rec: RecurrenceData, l_min: int = 2) -> np.ndarray:
    """Lengths of unbroken diagonal segments off the main diagonal.

    A segment is a maximal run of consecutive recurrent (i, i+k) at fixed
    offset k >= 1; only runs of at least l_min points are reported, ordered
    by offset, then by first point.  Rows are taken in bands (`_row_bands`);
    a run that reaches a band's last row carries its length, one per
    offset, into the next band.
    """
    n = rec.n_points
    carry = np.zeros(n, dtype=np.int64)  # carry[k]: run on offset k ending at row r0 - 1
    carried = np.empty(0, dtype=np.int64)  # the offsets with such a run
    starts, lengths = [], []  # finished runs: k * n + first row, and length

    def finish(k, last, length):
        keep = length >= l_min
        starts.append((k * n + last - length + 1)[keep])
        lengths.append(length[keep])

    for r0, r1, ii, jj in _row_bands(rec):
        off, ii = np.divmod(np.sort((jj - ii) * n + ii), n)
        breaks = np.flatnonzero((np.diff(off) != 0) | (np.diff(ii) != 1))
        first = np.concatenate(([0], breaks + 1))
        end = np.concatenate((breaks, [off.size - 1]))
        k, last, length = off[first], ii[end], end - first + 1
        joins = ii[first] == r0
        length[joins] += carry[k[joins]]
        carry[k[joins]] = 0
        broken = carried[carry[carried] > 0]
        finish(broken, r0 - 1, carry[broken])
        carry[broken] = 0
        open_ = last == r1 - 1
        carried = k[open_]
        carry[carried] = length[open_]
        finish(k[~open_], last[~open_], length[~open_])
    if carried.size:
        finish(carried, r1 - 1, carry[carried])
    if not lengths:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(lengths)[np.argsort(np.concatenate(starts))]


def mean_diagonal_length(rec: RecurrenceData, l_min: int = 2) -> float:
    lengths = diagonal_line_lengths(rec, l_min)
    if lengths.size == 0:
        return 0.0
    return float(lengths.mean())


#: Occupancy, relative to the best diagonal, that makes a diagonal strong:
#: half keeps a periodic signal's lines and drops the near-misses between.
STRONG_DIAGONAL_FRAC = 0.5

#: Spacing families split at gaps over FAMILY_TOL_FRAC of the median, absorbing
#: center jitter; one needs DOMINANT_SHARE of all spacings, so strays do not count.
FAMILY_TOL_FRAC = 0.05
DOMINANT_SHARE = 0.2


def diagonal_spacings(rec: RecurrenceData) -> np.ndarray:
    """Gaps between the strong diagonals of the plot.

    Offsets whose occupancy (count normalized by diagonal length) reaches
    STRONG_DIAGONAL_FRAC of the best one are grouped into contiguous clusters;
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
    strong = np.nonzero(occupancy >= STRONG_DIAGONAL_FRAC * top)[0]
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


def dominant_peak_count(spacings: np.ndarray) -> int:
    """Number of well-populated spacing families.

    Sorted spacings are split wherever neighbors differ by more than
    max(2 samples, FAMILY_TOL_FRAC * median); families holding at least
    DOMINANT_SHARE of all spacings count as dominant.
    """
    spacings = np.asarray(spacings, dtype=float)
    if spacings.size == 0:
        return 0
    srt = np.sort(spacings)
    tol = max(2.0, FAMILY_TOL_FRAC * float(np.median(srt)))
    splits = np.nonzero(np.diff(srt) > tol)[0]
    starts = np.concatenate(([0], splits + 1))
    ends = np.concatenate((splits, [srt.size - 1]))
    sizes = ends - starts + 1
    return int(np.count_nonzero(sizes >= DOMINANT_SHARE * srt.size))
