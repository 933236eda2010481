"""Wavepacket superposition dynamics and time-series chaos diagnostics."""

from .errors import (
    ConfigError,
    GridResolutionError,
    NeighborhoodError,
    NormalizationError,
    NumericalContractError,
    TruncationError,
)
from .fock import (
    FockVector,
    SuperpositionSpec,
    choose_cutoff,
    coherent_state,
    inner,
    norm,
    quadrature_moment,
    superpose_coherent,
)
from .bjj import (
    BJJOperatorSet,
    BJJParams,
    SpinState,
    bloch_series,
    build_bjj,
    evolve_bjj,
    make_initial,
    su2_coherent,
)
from .config import RunConfig, load_config, parse_config_text
from .kerr import KerrParams, evolve_kerr, kerr_series, revival_period, xsq_closed_form
from .morse import (
    MORSE_PRESETS,
    MorseEigenbasis,
    MorseParams,
    MorseState,
    build_eigenbasis,
    cached_eigenbasis,
    default_grid,
    evolve_morse,
    morse_autocorrelation,
    morse_moments_series,
    morse_revival_period,
    perelomov_state,
    superpose_morse,
)
from .series import SamplingPlan, TimeSeries, normalize_series
from .seriesio import read_series, write_series

__version__ = "0.1.0"
