"""Time-series diagnostics: return times, recurrence plots, divergence rates.

Exports resolve on first use (PEP 562), so importing one diagnostic does
not load the k-d tree code of the others.
"""

from importlib import import_module as _import_module

#: Submodule -> the names the package exports from it.
_SOURCES = {
    "embedding": ("EmbeddedSeries", "autocorr_delay", "delay_embed"),
    "lyapunov": ("LyapunovCurve", "LyapunovScan", "auto_fit_window", "fit_slope",
                 "lyapunov_curve", "lyapunov_scan"),
    "recurrence": ("RecurrenceData", "diagonal_line_lengths", "diagonal_profile",
                   "diagonal_spacings", "dominant_peak_count", "mean_diagonal_length",
                   "recurrence_plot"),
    "returns": ("ReturnTimeHistogram", "exponential_fit", "return_time_histogram"),
    "synthetic": ("logistic_series", "quasiperiodic_series", "sine_series"),
}

_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_SOURCES, *_EXPORTS]


def __getattr__(name):
    if name in _SOURCES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
