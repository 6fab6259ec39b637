"""Flat key-value run configuration.

The document format is one `section.key = value` assignment per line,
with `#` comments and blank lines ignored. Sections: potential,
constants, state, grid, output. Unknown keys are rejected with the line
number; missing keys fall back to documented defaults (hbar = 1,
2m = 1, grid [1e-6, 40/alpha] with 2000 points, states n = 0..2 at
l = 0, and the bundled demo potential parameters). `RadialGrid`, the
uniform grid both oracles solve on, lives here, so that parsing a config
loads no eigensolver.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .potential import PhysicalConstants, PotentialParams

# demo defaults: the general-family parameter set used by the bundled configs
_POTENTIAL_DEFAULTS = {
    "a": 1.0, "b": 0.01, "c": 2.0, "d": 2.0,
    "V0": 1.0, "V1": 0.5, "V2": 0.02, "alpha": 1.0,
}
_CONSTANT_DEFAULTS = {"hbar": 1.0, "mass": 0.5}
_GRID_DEFAULTS = {"r_min": 1e-6, "n_points": 2000}
_STATE_DEFAULTS = {"n": (0, 1, 2), "l": (0,)}

_FLOAT_KEYS = {
    "potential.a", "potential.b", "potential.c", "potential.d",
    "potential.V0", "potential.V1", "potential.V2", "potential.alpha",
    "constants.hbar", "constants.mass",
    "grid.r_min", "grid.r_max",
}
_INT_KEYS = {"grid.n_points"}
_LIST_KEYS = {"state.n", "state.l"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | {"output.path"}


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max], boundary points included."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise DomainError("RadialGrid: endpoints must be finite")
        if not (0.0 < self.r_min < self.r_max):
            raise DomainError(
                f"RadialGrid: need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 16:
            raise DomainError(f"RadialGrid: n_points must be an integer >= 16, got {self.n_points!r}")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


# alpha r_max of the default grid: e^(-2 alpha r) is below 1e-34 there, so
# the asymptote is fully reached
DEFAULT_REACH = 40.0


def _default_r_max(alpha):
    return DEFAULT_REACH / alpha


@dataclass(frozen=True)
class RunConfig:
    params: PotentialParams
    consts: PhysicalConstants
    n_list: tuple
    l_list: tuple
    grid: RadialGrid
    out_path: object = None


def parse_int_list(text, where="value"):
    """Integer list syntax: comma-separated entries, each `k` or `k..m`.

    Entries keep the order given; an entry repeated (also through a range)
    is rejected, so no state is solved twice.
    """
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            raise ConfigError(f"{where}: empty entry in list {text!r}")
        if ".." in tok:
            lo_s, _, hi_s = tok.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"{where}: bad range {tok!r}") from None
            if hi < lo:
                raise ConfigError(f"{where}: descending range {tok!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise ConfigError(f"{where}: bad integer {tok!r}") from None
    if any(v < 0 for v in out):
        raise ConfigError(f"{where}: negative entries not allowed in {text!r}")
    seen = set()
    for v in out:
        if v in seen:
            raise ConfigError(f"{where}: repeated entry {v} in {text!r}")
        seen.add(v)
    return tuple(out)


def parse_float_list(text, where="value"):
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            raise ConfigError(f"{where}: empty entry in list {text!r}")
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"{where}: bad number {tok!r}") from None
    return tuple(out)


def _parse_assignments(text):
    """key -> (value, name, line) of each assignment; the last one wins."""
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if not value:
            raise ConfigError(f"empty value for {key}", line=lineno)
        seen[key] = (value, key, lineno)
    return seen


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse and fully validate a config document; defaults fill the gaps.

    `overrides` maps keys to (value, flag) assignments made after the
    document's own, so a document value they replace is never read; an
    error in one names the flag and no line. grid.r_max, unless assigned,
    follows the final alpha.
    """
    seen = _parse_assignments(text)
    for key, (value, flag) in (overrides or {}).items():
        seen[key] = (value, flag, None)

    def take_float(key, default):
        if key not in seen:
            return default
        value, name, line = seen[key]
        try:
            x = float(value)
        except ValueError:
            raise ConfigError(f"{name}: not a number: {value!r}", line=line) from None
        if not math.isfinite(x):
            raise ConfigError(f"{name}: must be finite", line=line)
        return x

    pot = {name: take_float(f"potential.{name}", default)
           for name, default in _POTENTIAL_DEFAULTS.items()}
    hbar = take_float("constants.hbar", _CONSTANT_DEFAULTS["hbar"])
    mass = take_float("constants.mass", _CONSTANT_DEFAULTS["mass"])
    r_min = take_float("grid.r_min", _GRID_DEFAULTS["r_min"])
    r_max = take_float("grid.r_max", None)

    if "grid.n_points" in seen:
        value, name, line = seen["grid.n_points"]
        try:
            n_points = int(value)
        except ValueError:
            raise ConfigError(f"{name}: not an integer: {value!r}", line=line) from None
    else:
        n_points = _GRID_DEFAULTS["n_points"]

    def take_list(key, default):
        if key not in seen:
            return default
        value, name, line = seen[key]
        try:
            return parse_int_list(value, where=name)
        except ConfigError as exc:
            raise ConfigError(str(exc), line=line) from None

    n_list = take_list("state.n", _STATE_DEFAULTS["n"])
    l_list = take_list("state.l", _STATE_DEFAULTS["l"])

    out_path = seen["output.path"][0] if "output.path" in seen else None

    def build(cls, keys, **values):
        # a refused value's error names its key; the first such key set here gives the line
        try:
            return cls(**values)
        except DomainError as exc:
            lines = [seen[k][2] for k in keys
                     if k in seen and re.search(rf"\b{k.partition('.')[2]}\b", str(exc))]
            raise ConfigError(str(exc), line=lines[0] if lines else None) from None

    params = build(PotentialParams, ("potential.alpha",), **pot)
    consts = build(PhysicalConstants, ("constants.hbar", "constants.mass"), hbar=hbar, mass=mass)
    if r_max is None:
        r_max = _default_r_max(params.alpha)
    grid = build(RadialGrid, ("grid.n_points", "grid.r_min", "grid.r_max"),
                 r_min=r_min, r_max=r_max, n_points=n_points)
    return RunConfig(params=params, consts=consts, n_list=n_list, l_list=l_list,
                     grid=grid, out_path=out_path)

