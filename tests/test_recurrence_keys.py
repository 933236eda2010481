"""The key-array recurrence path against the three-array path it replaced.

`RecurrenceData` keeps its pairs as one sorted int64 array of keys
i * n + j, and the writers and diagonal statistics walk it in blocks.  The
oracles below are the earlier in-memory forms, which held full `ii`/`jj`
arrays and every temporary built from them; every output must match them.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import qnldyn
from qnldyn import seriesio
from qnldyn.seriesio import write_recurrence_bitmap, write_recurrence_pairs, write_series
from qnldyn.series import TimeSeries
from qnldyn.tsa import recurrence
from qnldyn.tsa.embedding import delay_embed
from qnldyn.tsa.recurrence import (
    RecurrenceData,
    diagonal_line_lengths,
    diagonal_profile,
    mean_diagonal_length,
    recurrence_plot,
)
from qnldyn.tsa.synthetic import sine_series

# ------------------------------------------------------------------ oracles


@dataclass(frozen=True)
class ThreeArrayRecurrence:
    """The relation as three arrays: ii, jj and their keys."""

    n_points: int
    epsilon: float
    ii: np.ndarray
    jj: np.ndarray
    window_start: int = 0

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
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "_keys", keys)

    @property
    def n_pairs(self):
        return self.ii.size

    def contains(self, i, j):
        if not (0 <= i < self.n_points and 0 <= j < self.n_points):
            raise IndexError("index outside the window")
        if i == j:
            return True
        lo, hi = (i, j) if i < j else (j, i)
        key = lo * self.n_points + hi
        pos = np.searchsorted(self._keys, key)
        return bool(pos < self._keys.size and self._keys[pos] == key)

    def recurrence_rate(self):
        return (2.0 * self.n_pairs + self.n_points) / self.n_points**2


def oracle_recurrence_plot(emb, epsilon, window):
    start, stop = window
    pairs = cKDTree(emb.points[start:stop]).query_pairs(epsilon, output_type="ndarray")
    n = stop - start
    ii, jj = np.divmod(np.sort(pairs[:, 0] * n + pairs[:, 1]), n)
    return ThreeArrayRecurrence(n, epsilon, ii, jj, start)


def oracle_pairs_bytes(rec, metadata):
    """Pair file as written from whole ii/jj slices through a digit table."""
    meta = {
        "n_points": int(rec.n_points),
        "epsilon": float(rec.epsilon),
        "window_start": int(rec.window_start),
        "n_pairs": int(rec.n_pairs),
        "recurrence_rate": float(rec.recurrence_rate()),
        **metadata,
    }
    lines = [f"# {key}={'%.17g' % value if isinstance(value, float) else value}"
             for key, value in meta.items()]
    lines.append("# columns=i,j")
    out = [("\n".join(lines) + "\n").encode()]
    width = len(str(rec.n_points - 1))
    digits = np.arange(rec.n_points).astype(f"S{width}").view(np.uint8)
    digits = digits.reshape(rec.n_points, width)
    rows = np.empty((rec.n_pairs, 2 * width + 2), dtype=np.uint8)
    rows[:, :width] = digits[rec.ii]
    rows[:, width] = ord(",")
    rows[:, width + 1 : -1] = digits[rec.jj]
    rows[:, -1] = ord("\n")
    out.append(rows[rows != 0].tobytes())
    return b"".join(out)


def oracle_bitmap_bytes(rec):
    """PBM with every bit set at once from the full ii/jj arrays."""
    n = rec.n_points
    row_bytes = (n + 7) // 8
    image = np.zeros(n * row_bytes, dtype=np.uint8)
    cols = np.concatenate((rec.ii, rec.jj, np.arange(n)))
    rows = np.concatenate((rec.jj, rec.ii, np.arange(n)))
    np.bitwise_or.at(image, (n - 1 - rows) * row_bytes + (cols >> 3),
                     (0x80 >> (cols & 7)).astype(np.uint8))
    return f"P4\n{n} {n}\n".encode() + image.tobytes()


def oracle_profile(rec):
    return np.bincount(rec.jj - rec.ii, minlength=rec.n_points)[: rec.n_points]


def oracle_line_lengths(rec, l_min=2):
    """Runs found in one offset-major sort of the whole pair list."""
    if rec.n_pairs == 0:
        return np.empty(0, dtype=np.int64)
    n = rec.n_points
    off, ii = np.divmod(np.sort((rec.jj - rec.ii) * n + rec.ii), n)
    breaks = np.nonzero((np.diff(off) != 0) | (np.diff(ii) != 1))[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [off.size - 1]))
    lengths = ends - starts + 1
    return lengths[lengths >= l_min]


def oracle_mean_length(rec, l_min=2):
    lengths = oracle_line_lengths(rec, l_min)
    return 0.0 if lengths.size == 0 else float(lengths.mean())


# ------------------------------------------------------------------ inputs

#: Windows at the edges of the packed byte (8|9) and of the decimal width.
WINDOWS = (1, 2, 8, 9, 1001)

#: Block sizes small enough that runs and pair lists cross many block edges.
BLOCKS = (1, 2, 3, 7, 64, 1 << 16)


@st.composite
def pair_sets(draw):
    """(n, sorted unique keys): scattered pairs plus diagonal runs."""
    n = draw(st.one_of(st.sampled_from(WINDOWS), st.integers(1, 60)))
    index = st.integers(0, n - 1)
    scattered = draw(st.lists(st.tuples(index, index), max_size=150))
    runs = draw(st.lists(st.tuples(index, st.integers(1, max(n - 1, 1)),
                                   st.integers(1, 40)), max_size=12))
    keys = [i * n + j for i, j in scattered if i < j]
    for i, k, length in runs:
        keys.extend((i + t) * n + i + t + k for t in range(length) if i + t + k < n)
    return n, np.unique(np.array(keys, dtype=np.int64))


def both_forms(n, keys, window_start=0):
    ii, jj = keys // n, keys % n
    return (RecurrenceData(n, 0.25, ii, jj, window_start),
            ThreeArrayRecurrence(n, 0.25, ii, jj, window_start))


def assert_outputs_match(tmp_path, rec, old):
    pairs_path, pbm_path = tmp_path / "rec.pairs.csv", tmp_path / "rec.pbm"
    write_recurrence_pairs(str(pairs_path), rec, {"source": "s.csv"})
    write_recurrence_bitmap(str(pbm_path), rec)
    assert pairs_path.read_bytes() == oracle_pairs_bytes(old, {"source": "s.csv"})
    assert pbm_path.read_bytes() == oracle_bitmap_bytes(old)
    assert np.array_equal(diagonal_profile(rec), oracle_profile(old))
    assert diagonal_profile(rec).dtype == np.int64
    for l_min in (1, 2, 3):
        lengths = diagonal_line_lengths(rec, l_min)
        expected = oracle_line_lengths(old, l_min)
        assert np.array_equal(np.sort(lengths), np.sort(expected))  # as multisets
        assert np.array_equal(lengths, expected)  # and in (offset, start) order
        assert lengths.dtype == np.int64
        assert mean_diagonal_length(rec, l_min) == oracle_mean_length(old, l_min)


# ------------------------------------------------------------------ tests


@settings(max_examples=120, deadline=None)
@given(drawn=pair_sets(), pair_block=st.sampled_from(BLOCKS),
       line_block=st.sampled_from(BLOCKS))
def test_outputs_equal_the_three_array_path(tmp_path_factory, drawn, pair_block, line_block):
    n, keys = drawn
    rec, old = both_forms(n, keys)
    with mock.patch.object(seriesio, "_PAIR_BLOCK", pair_block), \
            mock.patch.object(recurrence, "_LINE_BLOCK", line_block):
        assert_outputs_match(tmp_path_factory.mktemp("rec"), rec, old)


@pytest.mark.parametrize("n", WINDOWS)
def test_empty_pair_sets_equal_the_three_array_path(tmp_path, n):
    rec, old = both_forms(n, np.empty(0, dtype=np.int64))
    assert_outputs_match(tmp_path, rec, old)
    assert diagonal_line_lengths(rec).size == 0 and mean_diagonal_length(rec) == 0.0


def test_pair_sets_over_two_blocks_equal_the_three_array_path(tmp_path):
    n = 1001
    rng = np.random.default_rng(31)
    i = rng.integers(0, n - 1, 300_000)
    keys = np.unique(i * n + i + rng.integers(1, n - i))
    rec, old = both_forms(n, keys)
    assert rec.n_pairs > 2 * max(seriesio._PAIR_BLOCK, recurrence._LINE_BLOCK)
    assert_outputs_match(tmp_path, rec, old)


@pytest.mark.parametrize("line_block", [1, 2, 5])
def test_runs_carry_across_line_band_edges(line_block):
    """A diagonal through every band is one run, not one run per band."""
    n = 50
    i = np.arange(3, 40)
    keys = np.sort(np.concatenate((i * n + i + 4, np.array([0 * n + 30]))))
    rec, old = both_forms(n, keys)
    with mock.patch.object(recurrence, "_LINE_BLOCK", line_block):
        assert diagonal_line_lengths(rec, 2).tolist() == [37]
        assert np.array_equal(diagonal_line_lengths(rec, 1), oracle_line_lengths(old, 1))


def assert_lines_match(rec, old):
    for l_min in (1, 2, 3):
        lengths = diagonal_line_lengths(rec, l_min)
        assert np.array_equal(lengths, oracle_line_lengths(old, l_min))
        assert lengths.dtype == np.int64


#: Windows on both sides of the uint8 -> uint16 and uint16 -> uint32 key dtypes.
KEY_DTYPE_WINDOWS = {16: np.uint8, 17: np.uint16, 256: np.uint16, 257: np.uint32}


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("n", KEY_DTYPE_WINDOWS)
def test_line_pass_across_key_dtype_boundaries(n):
    """Keys sorted in uint8, uint16 or uint32 give the int64 fold's keys and runs."""
    assert recurrence._key_dtype(n) == KEY_DTYPE_WINDOWS[n]
    rng = np.random.default_rng(n)
    t = np.arange(n + 20)
    values = np.sin(2 * np.pi * t / rng.uniform(5, 13)) + 0.1 * rng.random(t.size)
    emb = delay_embed(TimeSeries(values, 1.0), 2, 1)
    for epsilon in (0.5, 0.9):
        rec = recurrence_plot(emb, epsilon, (3, 3 + n))
        old = oracle_recurrence_plot(emb, epsilon, (3, 3 + n))
        assert rec.n_pairs > n and diagonal_line_lengths(rec, 3).size > 0
        assert np.array_equal(rec.keys, old._keys) and rec.keys.dtype == np.int64
        assert_lines_match(rec, old)


@pytest.mark.baseline_kernels
@pytest.mark.parametrize("line_block", [1, 2, 7])
def test_line_pass_on_uint64_keys(line_block):
    """At n = 65537, n**2 - 1 needs uint64; runs cross every block edge."""
    n = 65537
    assert recurrence._key_dtype(n) == np.uint64
    runs = [(0, 1, 9), (11, 1, 4), (20, 1, 1), (0, 5, 2), (7, 5, 13), (n - 40, 38, 2),
            (65000, 536, 1), (0, n - 2, 2), (0, n - 1, 1), (n - 8, 3, 5)]
    ii = np.concatenate([np.arange(i, i + length) for i, _, length in runs])
    jj = ii + np.repeat([k for _, k, _ in runs], [length for *_, length in runs])
    keys = np.unique(ii * n + jj)
    rec, old = both_forms(n, keys)
    with mock.patch.object(recurrence, "_LINE_BLOCK", line_block):
        assert_lines_match(rec, old)
    assert diagonal_line_lengths(rec, 2).tolist() == [9, 4, 5, 2, 13, 2, 2]


@pytest.mark.baseline_kernels
def test_line_pass_memory():
    """The line pass holds 4-byte diagonal keys per pair plus a few blocks.

    About 1e6 pairs on 25 diagonals of a 40000-point window; measured 5.5 MB
    against this bound of 6.1 MB.  A full-length int64 temporary would need
    at least 8 more bytes per pair.
    """
    n = 40000
    k = np.arange(1, 26)
    ii = np.concatenate([np.arange(n - off) for off in k])
    jj = ii + np.repeat(k, n - k)
    keep = np.random.default_rng(5).random(ii.size) > 0.01
    rec = RecurrenceData.from_keys(n, 0.1, np.sort(ii[keep] * n + jj[keep]))
    del ii, jj, keep
    tracemalloc.start()
    try:
        lengths = diagonal_line_lengths(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths.size > 9000 and lengths.sum() > 0.98 * rec.n_pairs
    bound = 4 * rec.n_pairs + 4 * 8 * recurrence._LINE_BLOCK
    assert peak < bound, f"line pass peaked at {peak / 1e6:.2f} MB"


@settings(max_examples=80, deadline=None)
@given(drawn=pair_sets(), start=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_key_array_form_equals_three_array_form(drawn, start, seed):
    n, keys = drawn
    rec, old = both_forms(n, keys, start)
    via_keys = RecurrenceData.from_keys(n, 0.25, keys.copy(), start)
    for form in (rec, via_keys):
        assert np.array_equal(form.ii, old.ii) and np.array_equal(form.jj, old.jj)
        assert not form.ii.flags.writeable and not form.jj.flags.writeable
        assert form.n_pairs == old.n_pairs
        assert form.recurrence_rate() == old.recurrence_rate()
        assert form.window_start == start
        queries = np.random.default_rng(seed).integers(0, n, size=(40, 2))
        for i, j in queries.tolist() + [[a, b] for a, b in zip(old.ii[:20], old.jj[:20])]:
            assert form.contains(i, j) == old.contains(i, j)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 400), m=st.integers(1, 3), epsilon=st.floats(0.01, 0.6),
       start=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_recurrence_plot_equals_the_three_array_search(n, m, epsilon, start, seed):
    emb = delay_embed(TimeSeries(np.random.default_rng(seed).random(n + 10), 1.0), m, 1)
    rec = recurrence_plot(emb, epsilon, (start, start + n))
    old = oracle_recurrence_plot(emb, epsilon, (start, start + n))
    assert np.array_equal(rec.keys, old._keys)
    assert (rec.n_points, rec.epsilon, rec.window_start) == (n, epsilon, start)
    assert rec.keys.dtype == np.int64 and not rec.keys.flags.writeable


#: Peak RSS bound for `analyze rp` at window 20000 on RP_SERIES.
RP_RSS_BOUND_MB = 260


def test_analyze_rp_memory_at_window_20000(tmp_path):
    """Peak RSS of `analyze rp --window-size 20000` in a fresh process.

    The series is a sine of period 97.31 (24000 samples); at epsilon 0.02,
    m 3, it has 5.11 M pairs, about the density of the morse benchmark
    series (5.04 M at epsilon 0.05).  Measured on a 2-CPU x86-64 host with
    numpy 2.4 and scipy 1.17: 199 MB with the key array, 327 MB with the
    three-array form, whose copies of the pair set this bound of
    RP_RSS_BOUND_MB = 260 MB rejects.  (The morse series gave 205 and 328 MB.)
    """
    series = str(tmp_path / "sine.csv")
    write_series(series, sine_series(24000))
    argv = [sys.executable, "-m", "qnldyn.cli", "analyze", "rp", series,
            "--epsilon", "0.02", "--m", "3", "--window-size", "20000"]
    # a child of its own, so RUSAGE_CHILDREN holds this run's peak alone
    probe = ("import resource, subprocess, sys; "
             f"subprocess.run({argv!r}, check=True, stdout=subprocess.DEVNULL); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    src = os.path.dirname(os.path.dirname(qnldyn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    peak_mb = int(out.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert os.path.getsize(series + ".rp.pbm") > 20000 * 2500
    assert peak_mb < RP_RSS_BOUND_MB, f"analyze rp peaked at {peak_mb:.0f} MB"
