"""Flat key-value run configuration.

The document format is one `section.key = value` assignment per line,
with `#` comments and blank lines ignored. Sections: potential,
constants, state, grid, output. `KEYS` is the one table of keys, each
with its conversion and default: the potential, constants and grid keys
are the fields of `PotentialParams`, `PhysicalConstants` and
`RadialGrid`, defaulting to the bundled demo potential, the constants'
own field defaults and a grid [1e-6, 40/alpha] of 2000 points; states
default to n = 0..2 at l = 0. Unknown keys are rejected with the line
number. `RadialGrid`, the uniform grid both oracles solve on, lives
here, so that parsing a config loads no eigensolver.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError
from .potential import PhysicalConstants, PotentialParams


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
        # near the float range the last product k h can overflow; linspace
        # then sets that point to r_max itself
        with np.errstate(over="ignore"):
            return np.linspace(self.r_min, self.r_max, self.n_points)


# alpha r_max of the default grid: e^(-2 alpha r) is below 1e-34 there, so
# the asymptote is fully reached
DEFAULT_REACH = 40.0


@dataclass(frozen=True)
class RunConfig:
    params: PotentialParams
    consts: PhysicalConstants
    n_list: tuple
    l_list: tuple
    grid: RadialGrid
    out_path: object = None


def _entries(text, where):
    """The stripped entries of a comma-separated list, in order; an empty
    one is refused when reached."""
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            raise ConfigError(f"{where}: empty entry in list {text!r}")
        yield tok


def parse_int_list(text, where="value"):
    """Integer list syntax: comma-separated entries, each `k` or `k..m`.

    Entries keep the order given; an entry repeated (also through a range)
    is rejected, so no state is solved twice.
    """
    out = []
    for tok in _entries(text, where):
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
    for tok in _entries(text, where):
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"{where}: bad number {tok!r}") from None
    return tuple(out)


def _field_keys(section, cls, defaults=None):
    """section.field -> (conversion, default) for each field of a dataclass;
    without `defaults`, the fields' own defaults."""
    return {f"{section}.{f.name}": ({"float": float, "int": int}[f.type],
                                    f.default if defaults is None else defaults[f.name])
            for f in fields(cls)}


# key -> (conversion, default), in the order values are converted; a
# grid.r_max of None follows the final alpha (DEFAULT_REACH / alpha)
KEYS = {
    **_field_keys("potential", PotentialParams, {
        "a": 1.0, "b": 0.01, "c": 2.0, "d": 2.0,
        "V0": 1.0, "V1": 0.5, "V2": 0.02, "alpha": 1.0}),
    **_field_keys("constants", PhysicalConstants),
    **_field_keys("grid", RadialGrid, {"r_min": 1e-6, "r_max": None, "n_points": 2000}),
    "state.n": (parse_int_list, (0, 1, 2)),
    "state.l": (parse_int_list, (0,)),
    "output.path": (str, None),
}


def _convert(convert, text, name, line):
    """An assigned value through its key's conversion; errors name `name`."""
    try:
        if convert is parse_int_list:
            return parse_int_list(text, where=name)
        value = convert(text)
    except ConfigError as exc:
        raise ConfigError(str(exc), line=line) from None
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"{name}: not {kind}: {text!r}", line=line) from None
    if convert is float and not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite", line=line)
    return value


def _assignments(text, overrides):
    """(key, value, name, line) of each assignment: the document's lines,
    then the overrides, each named by its flag and with no line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", line=lineno)
        key, _, value = line.partition("=")
        yield key.strip(), value.strip(), key.strip(), lineno
    for key, (value, flag) in overrides.items():
        yield key, value, flag, None


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse and fully validate a config document; defaults fill the gaps.

    `overrides` maps keys to (value, flag) assignments made after the
    document's own, so a document value they replace is never read; an
    error in one names the flag and no line. grid.r_max, unless assigned,
    follows the final alpha.
    """
    seen = {}  # key -> (value, name, line); the last assignment wins
    for key, value, name, line in _assignments(text, overrides or {}):
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", line=line)
        if not value:
            raise ConfigError(f"empty value for {name}", line=line)
        seen[key] = (value, name, line)

    values = {key: _convert(convert, *seen[key]) if key in seen else default
              for key, (convert, default) in KEYS.items()}

    def build(cls, section):
        # a refused value's error names its key; the first such key set here gives the line
        keys = {f"{section}.{f.name}": f.name for f in fields(cls)}
        try:
            return cls(**{name: values[key] for key, name in keys.items()})
        except DomainError as exc:
            lines = [seen[key][2] for key, name in keys.items()
                     if key in seen and re.search(rf"\b{name}\b", str(exc))]
            raise ConfigError(str(exc), line=lines[0] if lines else None) from None

    params = build(PotentialParams, "potential")
    consts = build(PhysicalConstants, "constants")
    if values["grid.r_max"] is None:
        values["grid.r_max"] = DEFAULT_REACH / params.alpha
    grid = build(RadialGrid, "grid")
    return RunConfig(params=params, consts=consts, n_list=values["state.n"],
                     l_list=values["state.l"], grid=grid, out_path=values["output.path"])
