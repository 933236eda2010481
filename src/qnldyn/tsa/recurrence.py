"""Recurrence plots over a window of embedded points.

A pair (i, j) recurs when the Euclidean distance between the embedded
points is at most epsilon.  The relation is symmetric and reflexive, so
only off-diagonal pairs with i < j are stored; the main diagonal is
implied.  Diagonal-line structure (spacings between strong diagonals,
lengths of unbroken segments) separates periodic, quasi-periodic, and
mixing signals.

The pairs are held as one sorted int64 array of keys i * n + j.  Keys are
sorted in the narrowest unsigned dtype that holds n**2 - 1 (uint32 up to
n = 65536), and consumers decode them a block at a time.  The line pass
holds one such narrow diagonal key per pair while it runs, 4 bytes at the
usual windows, so the peak stays at the pair search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .embedding import TREE_OPTIONS, EmbeddedSeries


#: Stored pairs decoded per block by the diagonal statistics.
_LINE_BLOCK = 1 << 16


def _key_dtype(n_points: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every key below n_points**2."""
    return np.min_scalar_type(n_points * n_points - 1)


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
            block = self.keys[lo : lo + size]
            ii = block // self.n_points
            yield ii, block - ii * self.n_points

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
    into keys of the narrowest unsigned dtype and dropped; the keys are
    sorted in place and widened once to int64, so no later step holds more
    memory than the search did.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be finite and positive")
    start, stop = window
    if not (0 <= start < stop <= len(emb)):
        raise ValueError(f"window {window} outside the embedded range")
    n = stop - start
    pairs = cKDTree(emb.points[start:stop], **TREE_OPTIONS).query_pairs(
        epsilon, output_type="ndarray")
    keys = pairs[:, 0].astype(_key_dtype(n))
    keys *= n
    np.add(keys, pairs[:, 1], out=keys, casting="unsafe")
    del pairs
    keys.sort()
    return RecurrenceData.from_keys(n, epsilon, keys.astype(np.int64), start)


def diagonal_profile(rec: RecurrenceData) -> np.ndarray:
    """Recurrent-point count per diagonal offset k = j - i, k >= 1."""
    n = rec.n_points
    profile = np.zeros(n, dtype=np.int64)
    for lo in range(0, rec.keys.size, _LINE_BLOCK):
        block = rec.keys[lo : lo + _LINE_BLOCK]
        profile += np.bincount(block - block // n * (n + 1), minlength=n)
    return profile


def diagonal_line_lengths(rec: RecurrenceData, l_min: int = 2) -> np.ndarray:
    """Lengths of unbroken diagonal segments off the main diagonal.

    A segment is a maximal run of consecutive recurrent (i, i+k) at fixed
    offset k >= 1; only runs of at least l_min points are reported, ordered
    by offset, then by first point.  The pairs are sorted once by their
    diagonal keys k * n + i, in the narrowest unsigned dtype that holds
    them; a run is a stretch of keys that step by 1, and runs on different
    offsets never join, because the key jumps by at least k + 1 between
    them.
    """
    keys, n = rec.keys, rec.n_points
    diag = np.empty(keys.size, dtype=_key_dtype(n))
    for lo in range(0, keys.size, _LINE_BLOCK):
        block = keys[lo : lo + _LINE_BLOCK]
        ii = block // n
        diag[lo : lo + _LINE_BLOCK] = (block - ii * (n + 1)) * n + ii
    diag.sort()
    lengths = [np.empty(0, dtype=np.int64)]
    first = 0  # position of the open run's first key
    for lo in range(0, diag.size, _LINE_BLOCK):
        hi = lo + _LINE_BLOCK
        last = np.flatnonzero(np.diff(diag[lo : hi + 1]) != 1) + lo
        if hi >= diag.size:
            last = np.append(last, diag.size - 1)
        length = np.diff(last, prepend=first - 1)
        lengths.append(length[length >= l_min])
        if last.size:
            first = last[-1] + 1
    return np.concatenate(lengths)


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
