"""Uniformly sampled real time series and the plans that generate them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SamplingPlan:
    """Uniform time grid t_start + dt * k, k = 0 .. n_samples - 1."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    def series(self, values, system: str, observable: str, model: dict) -> "TimeSeries":
        """values on this grid; origin: system, observable, model keys, t_start, n_samples."""
        origin = {"system": system, "observable": observable, **model,
                  "t_start": repr(self.t_start), "n_samples": str(self.n_samples)}
        return TimeSeries(values, self.dt, origin)


@dataclass(frozen=True)
class TimeSeries:
    """Real scalar observable sampled on a uniform grid.

    origin carries provenance (system, observable, resolved parameters)
    as flat strings; it travels with the series into file headers.
    """

    values: np.ndarray
    dt: float
    origin: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array of length >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def normalize_series(series: TimeSeries) -> TimeSeries:
    """Affine map of the values onto [0, 1], recorded in the metadata.

    Analysis routines assume comparable scales across systems; the offset
    and scale are kept so the map can be undone.
    """
    lo = float(series.values.min())
    hi = float(series.values.max())
    span = hi - lo
    if span <= 0.0 or not np.isfinite(span):
        raise ValueError("cannot normalize a constant series")
    vals = (series.values - lo) / span
    origin = dict(series.origin)
    origin["normalized"] = "true"
    origin["normalize_offset"] = repr(lo)
    origin["normalize_scale"] = repr(span)
    return TimeSeries(vals, series.dt, origin)
