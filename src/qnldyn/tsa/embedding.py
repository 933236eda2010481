"""Delay-coordinate embedding of scalar series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..series import TimeSeries

#: Longest lag searched for the first autocorrelation minimum: it bounds the Python
#: loop, and at m = 3 it already spans 4000 samples of the CLI's default rp window.
MAX_DELAY_LAG = 2000

#: Build options of every k-d tree in tsa: midpoint splits, no shrunk node boxes and
#: 32-point leaves build and query faster than scipy's defaults on delay embeddings.
#: Ball and pair queries return exact sets, which the callers sort, so no result
#: depends on them.
TREE_OPTIONS = {"balanced_tree": False, "compact_nodes": False, "leafsize": 32}


@dataclass(frozen=True)
class EmbeddedSeries:
    """Delay vectors (v_k, v_{k+d}, ..., v_{k+(m-1)d}) stacked as rows."""

    points: np.ndarray
    m: int
    delay: int
    dt: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.shape[1] != self.m:
            raise ValueError("points width must equal m")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def scalar_track(self) -> np.ndarray:
        """Final coordinate of each vector, used to follow divergence."""
        return self.points[:, -1]


def delay_embed(series: TimeSeries, m: int, delay: int) -> EmbeddedSeries:
    """Embed with dimension m and integer delay d (in samples).

    The number of vectors is len(series) - (m - 1) * d; m = 1 returns the
    raw samples as column vectors.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if delay < 1:
        raise ValueError("delay must be >= 1")
    values = series.values
    count = values.size - (m - 1) * delay
    if count < 2:
        raise ValueError("series too short for this embedding")
    cols = [values[i * delay : i * delay + count] for i in range(m)]
    return EmbeddedSeries(np.column_stack(cols), m, delay, series.dt)


def _autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_i x_i x_{i+k} for k = 0..max_lag, by one FFT of x zero-padded to the
    least power of two L >= n + max_lag + 1.  Lag k of the circular sum adds the
    pairs with j - i = k - L too, but k - L < -(n - 1): there are none."""
    size = 1 << (x.size + max_lag).bit_length()
    spec = np.fft.rfft(x, size)
    return np.fft.irfft(spec * np.conj(spec), size)[: max_lag + 1]


def autocorr_delay(series: TimeSeries) -> int:
    """Delay choice: first minimum of the autocorrelation function.

    Falls back to the first zero crossing when no interior minimum shows
    up within MAX_DELAY_LAG (or half the series), and to 1 when neither does.
    """
    x = series.values - series.values.mean()
    n = x.size
    max_lag = min(n // 2, MAX_DELAY_LAG)
    if max_lag < 2:
        return 1
    acf = _autocorrelation(x, max_lag)
    if acf[0] <= 0:
        return 1
    acf = acf / acf[0]
    for k in range(1, max_lag):
        if acf[k] < acf[k - 1] and acf[k] <= acf[k + 1]:
            return k
    below = np.nonzero(acf[1:] <= 0.0)[0]
    if below.size:
        return int(below[0]) + 1
    return 1
