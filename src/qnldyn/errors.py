"""Exception types shared across the package.

Everything that signals a violated numerical contract derives from
NumericalContractError so the CLI can map it to a dedicated exit code.
"""


class NumericalContractError(Exception):
    """A stated numerical guarantee could not be met."""


class TruncationError(NumericalContractError):
    """Basis cutoff too small for the requested state or operation."""


class NormalizationError(NumericalContractError):
    """State norm deviates from 1 beyond tolerance."""


class GridResolutionError(NumericalContractError):
    """Spatial grid too coarse for trustworthy matrix elements."""


class NeighborhoodError(NumericalContractError):
    """No usable neighborhoods found during phase-space analysis."""


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


class OutputError(OSError):
    """An output file could not be written; the message names its path."""
