"""Wavepacket superposition dynamics and time-series chaos diagnostics.

Exports resolve on first use (PEP 562): importing the package loads no
submodule, so a command that needs only numpy never pays for scipy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Submodule -> the names the package exports from it.
_SOURCES = {
    "errors": ("ConfigError", "GridResolutionError", "NeighborhoodError",
               "NormalizationError", "NumericalContractError", "TruncationError"),
    "fock": ("FockVector", "SuperpositionSpec", "choose_cutoff", "coherent_state",
             "inner", "norm", "quadrature_moment", "superpose_coherent"),
    "bjj": ("BJJOperatorSet", "BJJParams", "SpinState", "bloch_series", "build_bjj",
            "evolve_bjj", "make_initial", "su2_coherent"),
    "config": ("RunConfig", "load_config", "parse_config_text"),
    "kerr": ("KerrParams", "evolve_kerr", "kerr_series", "revival_period",
             "xsq_closed_form"),
    "morse": ("MORSE_PRESETS", "MorseEigenbasis", "MorseParams", "MorseState",
              "build_eigenbasis", "cached_eigenbasis", "default_grid", "evolve_morse",
              "morse_autocorrelation", "morse_moments_series", "morse_revival_period",
              "perelomov_state", "superpose_morse"),
    "series": ("SamplingPlan", "TimeSeries", "normalize_series"),
    "seriesio": ("read_series", "write_series"),
}

_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

#: Submodules reachable as package attributes; `spectral` was one because
#: the system modules import it.
_SUBMODULES = (*_SOURCES, "spectral")

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
