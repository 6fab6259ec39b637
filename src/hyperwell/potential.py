"""The generalized inverted hyperbolic potential family and its special cases.

The family is

    V(r) = -a V0 coth(alpha r) + b V1 coth^2(alpha r)
           - c V2 cosech^2(alpha r) + d

with depths V0, V1, V2 and screening rate alpha > 0. As coth^2 =
1 + cosech^2, it is the Eckart form -A coth + B cosech^2 + C, whose
coefficients PotentialParams.A, .B and .C hold; named special cases zero
out (or flip) coefficients. V tends to C - A as r -> infinity and is
singular at the origin whenever a, b or c is active.

The radial problem depends only on A, B and C over s alpha^2, s =
hbar^2/(2m), on l and on the grid in rho = alpha r; `dimensionless` maps a
config there, where the solvers and the exact levels work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DomainError, EvaluationOverflowError, SingularCoefficientError
from .special import hyperbolic_pair


@dataclass(frozen=True)
class PotentialParams:
    """Shape coefficients a, b, c, d plus depths V0, V1, V2 and rate alpha;
    A = a V0, B = b V1 - c V2 and C = b V1 + d are the Eckart coefficients."""

    a: float
    b: float
    c: float
    d: float
    V0: float
    V1: float
    V2: float
    alpha: float

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise DomainError(f"PotentialParams: {f.name} must be a finite real, got {val!r}")
        if self.alpha <= 0:
            raise DomainError(f"PotentialParams: alpha must be positive, got {self.alpha}")

    @property
    def A(self):
        return self.a * self.V0

    @property
    def B(self):
        return self.b * self.V1 - self.c * self.V2

    @property
    def C(self):
        return self.b * self.V1 + self.d

    @property
    def asymptote(self):
        """Limit of V(r) as r -> infinity."""
        return self.C - self.A


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    mass: float = 0.5  # natural units: hbar = 2m = 1

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise DomainError(f"PhysicalConstants: {f.name} must be positive and finite")
        if not 0.0 < self.s < math.inf:
            raise DomainError(
                f"PhysicalConstants: hbar^2/(2m) = {self.s} must be positive and finite")

    @property
    def s(self):
        """hbar^2/(2m), the only place hbar and m are combined."""
        return self.hbar * self.hbar / (2.0 * self.mass)


@dataclass(frozen=True)
class Dimensionless:
    """A config in rho = alpha r and eps = E/(s alpha^2): the energy unit
    scale = s alpha^2, A, B and C over it (beta^2 is A), alpha and the grid
    in r. Nothing is checked on construction."""

    scale: float
    A: float
    B: float
    C: float
    alpha: float
    grid: object = None

    @property
    def h(self):
        """The grid step in rho."""
        return self.alpha * self.grid.h

    def unit(self, inverse=False):
        """s alpha^2, refused (SingularCoefficientError) where it is 0 or inf
        or, with `inverse`, where 1/(s alpha^2) is."""
        if not 0.0 < self.scale < math.inf or inverse and 1.0 / self.scale == math.inf:
            raise SingularCoefficientError(
                f"s alpha^2 = {self.scale} makes the 1/(s alpha^2) energy scale singular")
        return self.scale

    def coefficients(self):
        """(A, B), refused where unit(inverse=True) is or where one of them is
        not finite, naming it: the closed forms read both."""
        self.unit(inverse=True)
        for name, value in (("beta^2 = a V0/(s alpha^2)", self.A),
                            ("(b V1 - c V2)/(s alpha^2)", self.B)):
            if not math.isfinite(value):
                raise SingularCoefficientError(f"{name} = {value} is not finite")
        return self.A, self.B


def dimensionless(params, consts, grid=None) -> Dimensionless:
    """The map of (params, consts, grid); a quotient that overflows is inf."""
    scale = consts.s * (params.alpha * params.alpha)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A, B, C = (float(np.float64(x) / scale) for x in (params.A, params.B, params.C))
    return Dimensionless(scale, A, B, C, params.alpha, grid)


def _sample(params, consts, l, r, approximate):
    """(V_eff, terms) on a float array r whose alpha r all lie in (0, inf).

    V_eff is V plus the centrifugal barrier of l, s l(l+1)/r^2, or with
    approximate its surrogate s l(l+1) alpha^2 cosech^2(alpha r); terms
    holds (name, values) of each active term. A term with a zero
    coefficient is skipped, so that, say, a pure-constant potential stays
    exact where cosech^2 overflows. Nothing is checked and no numpy
    warning is raised: V_eff is non-finite wherever an active term is.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coth, csch2 = hyperbolic_pair(params.alpha * r)
        terms = []
        if params.a * params.V0 != 0.0:
            terms.append(("a*V0*coth", -(params.a * params.V0 * coth)))
        if params.b * params.V1 != 0.0:
            terms.append(("b*V1*coth^2", params.b * params.V1 * coth * coth))
        if params.c * params.V2 != 0.0:
            terms.append(("c*V2*cosech^2", -(params.c * params.V2 * csch2)))
        if l:
            coef = consts.s * l * (l + 1)
            terms.append(("centrifugal barrier",
                          coef * (params.alpha * params.alpha) * csch2 if approximate
                          else coef / (r * r)))
        v = np.zeros(r.shape) + params.d
        for _, values in terms:
            v = v + values
    return v, terms


def eval_potential(params: PotentialParams, r):
    """V(r) for r > 0, shaped like r: effective_potential at l = 0."""
    return effective_potential(params, None, 0, r)


def effective_potential(params, consts, l, r, approximate=False):
    """V(r) plus the centrifugal barrier of l (the cosech^2 surrogate with
    approximate), shaped like r.

    Raises DomainError for r outside (0, inf) and EvaluationOverflowError
    at the first non-finite sample, naming its first non-finite term.
    """
    where = "effective_potential" if l else "eval_potential"
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError(f"{where}: r must lie in (0, inf)")
    v, terms = _sample(params, consts, l, arr, approximate)
    bad = ~np.isfinite(v)
    if np.any(bad):
        i = int(np.argmax(bad))
        term = next((name for name, values in terms if not np.isfinite(np.ravel(values)[i])),
                    "potential")
        raise EvaluationOverflowError(
            f"{where}: term {term} is non-finite at r = {float(np.ravel(arr)[i])}")
    return v


def scan_series(params, r_values, consts=None, l=0, approximate=False):
    """Evaluate V (or the effective potential) on a sequence of r values.

    Returns a list aligned with r_values in which every entry is a float
    or None; None is an explicit gap marker for points where a term
    overflowed or r was outside the domain. Gaps are never dropped.
    """
    r = np.asarray(r_values, dtype=float)
    out = np.full(r.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        x = params.alpha * r
        inside = np.isfinite(x) & (x > 0.0)
    out[inside] = _sample(params, consts, l, r[inside], approximate)[0]
    return with_gaps(out, ~np.isfinite(out))


def with_gaps(values, gaps):
    """The array `values` as a list of floats with None where `gaps` holds."""
    series = values.tolist()
    for i in np.flatnonzero(gaps).tolist():
        series[i] = None
    return series


# potential --kind: the block with the coefficients each special case fixes.
# Rosen-Morse keeps a as given: its printed formula corresponds to negating a
# (the sweep plots use a = -1 to flip the coth term's sign), so both sign
# conventions are reachable and none is imposed. Poschl-Teller is defined
# with +c V2 cosech^2 where the family has -c V2 cosech^2, so its c is stored
# negated. Scarf is even in coth, via the b-only term.
KINDS = {
    "general": lambda p: p,
    "rosen-morse": lambda p: replace(p, b=0.0, d=0.0, V1=0.0),
    "poschl-teller": lambda p: replace(p, a=0.0, b=0.0, c=-p.c, d=0.0, V0=0.0, V1=0.0),
    "scarf": lambda p: replace(p, a=0.0, c=0.0, d=0.0, V0=0.0, V2=0.0),
}
