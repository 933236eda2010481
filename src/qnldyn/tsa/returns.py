"""First-return-time statistics of a scalar series.

The value range is tiled with cells of fixed width anchored at the series
minimum; the cell containing the first sample is the reference.  Return
times are the gaps between successive re-entries into that cell, each
re-entry requiring at least one sample spent outside.  For mixing
dynamics the gaps follow mu * exp(-mu * tau) with mu the inverse mean,
and the quality of that law is scored against the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..series import TimeSeries

#: Fewer recorded returns than this leaves the exponential score undefined.
MIN_RETURNS = 10

#: Cap on the number of equal-width bins used to score the exponential law.
MAX_FIT_BINS = 40


@dataclass(frozen=True)
class ReturnTimeHistogram:
    """Observed return times (in samples) and their exponential-law summary."""

    cell_size: float
    return_times: np.ndarray
    mean_tau: float
    mu_fit: float
    dt: float = 1.0
    fit_quality: float | None = None
    quasi_periodic: bool = False
    insufficient: bool = False
    occupied_bins: int = 0

    def __post_init__(self):
        times = np.asarray(self.return_times)
        times.setflags(write=False)
        object.__setattr__(self, "return_times", times)

    @property
    def mu_per_time(self) -> float:
        """Decay rate converted from per-sample to per-time units."""
        return self.mu_fit / self.dt


def _fit_bins(times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-width binning: edges, centers, counts.

    Integer data gets integer-aligned bin widths so exactly repeating
    return times never straddle an edge.
    """
    lo = float(times.min())
    hi = float(times.max())
    if np.allclose(times, np.round(times)):
        width = max(1.0, np.ceil((hi - lo + 1.0) / MAX_FIT_BINS))
        edges = np.arange(lo - 0.5, hi + width, width)
    else:
        edges = np.linspace(lo, hi, MAX_FIT_BINS + 1)
    counts, edges = np.histogram(times, edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return edges, centers, counts


def exponential_fit(times) -> tuple[float, float | None, bool, int]:
    """Score times against the law mu * exp(-mu * tau), mu = 1/mean.

    Returns (mu, fit_quality, quasi_periodic, occupied_bins).  The score
    is the coefficient of determination between empirical log-density
    over occupied bins and the fixed line log(mu) - mu * tau, clamped to
    [0, 1]; a distribution concentrated in a single bin (or with no
    spread in log-density) is flagged quasi-periodic with score 0.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("no return times recorded")
    if np.any(times <= 0):
        raise ValueError("return times must be positive")
    mean_tau = float(times.mean())
    mu = 1.0 / mean_tau
    edges, centers, counts = _fit_bins(times)
    occupied = counts > 0
    n_occ = int(np.count_nonzero(occupied))
    if n_occ < 2:
        return mu, 0.0, True, n_occ
    widths = np.diff(edges)[occupied]
    log_freq = np.log(counts[occupied] / (times.size * widths))
    predicted = np.log(mu) - mu * centers[occupied]
    ss_res = float(np.sum((log_freq - predicted) ** 2))
    ss_tot = float(np.sum((log_freq - log_freq.mean()) ** 2))
    if ss_tot == 0.0:
        return mu, 0.0, True, n_occ
    score = 1.0 - ss_res / ss_tot
    return mu, float(min(max(score, 0.0), 1.0)), False, n_occ


def return_time_histogram(series: TimeSeries, cell_size: float) -> ReturnTimeHistogram:
    """Collect first-return times of a series into its starting cell.

    With fewer than MIN_RETURNS recorded gaps the summary is marked
    insufficient and carries no fit score; occupied_bins counts the fit
    bins the return times fall in either way.  ValueError when cell_size
    is not finite and positive, or when the series never leaves its
    reference cell (the cell is too wide) or never comes back to it.
    """
    if not 0 < cell_size < np.inf:
        raise ValueError("cell_size must be finite and positive")
    values = series.values
    lo = values.min()
    cells = np.floor((values - lo) / cell_size).astype(np.int64)
    reference = cells[0]
    in_cell = cells == reference
    entries = np.nonzero(in_cell[1:] & ~in_cell[:-1])[0] + 1
    entries = np.concatenate(([0], entries))  # sample 0 opens the first gap
    times = np.diff(entries)
    if in_cell.all():
        raise ValueError("series never left the reference cell; reduce cell_size")
    if times.size == 0:
        raise ValueError(
            "series never returned to the reference cell; "
            "enlarge cell_size or lengthen the series"
        )
    mu, quality, quasi, occupied = exponential_fit(times)
    insufficient = times.size < MIN_RETURNS
    return ReturnTimeHistogram(
        cell_size=cell_size,
        return_times=times,
        mean_tau=float(times.mean()),
        mu_fit=mu,
        dt=series.dt,
        fit_quality=None if insufficient else quality,
        quasi_periodic=quasi and not insufficient,
        insufficient=insufficient,
        occupied_bins=occupied,
    )
