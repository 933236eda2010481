"""Flat key=value run configuration.

A run file is plain text: one `key = value` per line, `#` comments,
dotted prefixes for sections (`kerr.chi_prime_ratio = 1e-3`).  Unknown
keys are rejected by name so typos fail loudly instead of silently
running defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

#: Recognized keys and their parsers, per section.
_TOP_KEYS = {
    "system": str,
    "observable": str,
    "t_start": float,
    "dt": float,
    "n_samples": int,
    "output": str,
}

_SECTION_KEYS = {
    "kerr": {
        "chi": float,
        "chi_prime_ratio": float,
        "alpha_sq": float,
        "ell": int,
    },
    "morse": {
        "preset": str,
        "alpha": float,
        "ell": int,
        "n_prime": int,
        "n_points": int,
    },
    "bjj": {
        "n_atoms": int,
        "u": float,
        "state": str,
    },
}

_SYSTEMS = tuple(_SECTION_KEYS)

_DEFAULTS = {
    "observable": None,  # per-system default filled in validate
    "t_start": 0.0,
    "dt": 0.1,
    "n_samples": 100000,
    "output": "series.csv",
}


@dataclass
class RunConfig:
    """Parsed and validated run file."""

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
            caster = table[sub]
        elif key in _TOP_KEYS:
            caster = _TOP_KEYS[key]
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
    if system not in _SYSTEMS:
        raise ConfigError(
            f"{source}: system must be one of {', '.join(_SYSTEMS)}; got {system!r}"
        )
    top = dict(_DEFAULTS)
    for key in list(seen):
        if "." not in key:
            top[key] = seen.pop(key)
    params: dict[str, object] = {}
    for key, value in seen.items():
        section, _, sub = key.partition(".")
        if section != system:
            raise ConfigError(
                f"{source}: key {key!r} belongs to system {section!r}, "
                f"but system = {system}"
            )
        params[sub] = value
    if top["observable"] is None:
        top["observable"] = {"kerr": "x^2", "morse": "x", "bjj": "lx"}[system]
    if top["dt"] <= 0:
        raise ConfigError(f"{source}: dt must be positive")
    if top["n_samples"] < 2:
        raise ConfigError(f"{source}: n_samples must be at least 2")
    return RunConfig(
        system=system,
        observable=str(top["observable"]),
        t_start=float(top["t_start"]),
        dt=float(top["dt"]),
        n_samples=int(top["n_samples"]),
        output=str(top["output"]),
        params=params,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)
