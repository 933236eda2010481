"""Flat key=value run configuration.

A run file is plain text: one `key = value` per line, `#` comments,
dotted prefixes for sections (`kerr.chi_prime_ratio = 1e-3`).  Unknown
keys are rejected by name so typos fail loudly instead of silently
running defaults.  A key left out takes its default from the tables
below, so `RunConfig.params` holds every section key that has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

#: Every run-file key: its parser and its default.  A None default is
#: filled elsewhere: `system` is required, `observable` defaults per
#: system, and `morse.n_prime` defaults to the preset's top bound level.
_TOP_KEYS = {
    "system": (str, None),
    "observable": (str, None),
    "t_start": (float, 0.0),
    "dt": (float, 0.1),
    "n_samples": (int, 100000),
    "output": (str, "series.csv"),
}

_SECTION_KEYS = {
    "kerr": {
        "chi": (float, 1.0),
        "chi_prime_ratio": (float, 0.0),
        "alpha_sq": (float, 25.0),
        "ell": (int, 1),
    },
    "morse": {
        "preset": (str, "default"),
        "alpha": (float, 0.4),
        "ell": (int, 1),
        "n_prime": (int, None),
    },
    "bjj": {
        "n_atoms": (int, 40),
        "u": (float, 50.0),
        "state": (str, "even"),
    },
}

_OBSERVABLES = {"kerr": "x^2", "morse": "x", "bjj": "lx"}


def _defaults(table: dict) -> dict:
    return {key: default for key, (_, default) in table.items() if default is not None}


@dataclass
class RunConfig:
    """Parsed and validated run file; params maps section keys to resolved values."""

    system: str
    observable: str
    t_start: float
    dt: float
    n_samples: int
    output: str
    params: dict = field(default_factory=dict)

    def flat_items(self):
        """(key, value) pairs echoing the fully resolved configuration."""
        yield "system", self.system
        yield "observable", self.observable
        yield "t_start", self.t_start
        yield "dt", self.dt
        yield "n_samples", self.n_samples
        for key in sorted(self.params):
            yield f"{self.system}.{key}", self.params[key]


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text; all errors carry `source:lineno`."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if "." in key:
            section, _, sub = key.partition(".")
            table = _SECTION_KEYS.get(section)
            if table is None or sub not in table:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            caster = table[sub][0]
        elif key in _TOP_KEYS:
            caster = _TOP_KEYS[key][0]
        else:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            seen[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
        if caster is float and not math.isfinite(seen[key]):
            raise ConfigError(f"{source}:{lineno}: {key!r} must be finite; got {value!r}")
    return _validate(seen, source)


def _validate(seen: dict, source: str) -> RunConfig:
    if "system" not in seen:
        raise ConfigError(f"{source}: missing required key 'system'")
    system = str(seen.pop("system")).lower()
    if system not in _SECTION_KEYS:
        raise ConfigError(
            f"{source}: system must be one of {', '.join(_SECTION_KEYS)}; got {system!r}"
        )
    top = _defaults(_TOP_KEYS)
    top["observable"] = _OBSERVABLES[system]
    params = _defaults(_SECTION_KEYS[system])
    for key, value in seen.items():
        section, dot, sub = key.partition(".")
        if not dot:
            top[key] = value
        elif section != system:
            raise ConfigError(
                f"{source}: key {key!r} belongs to system {section!r}, "
                f"but system = {system}"
            )
        else:
            params[sub] = value
    if top["dt"] <= 0:
        raise ConfigError(f"{source}: dt must be positive")
    if top["n_samples"] < 2:
        raise ConfigError(f"{source}: n_samples must be at least 2")
    return RunConfig(system=system, params=params, **top)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)
