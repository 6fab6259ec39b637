"""The generalized inverted hyperbolic potential family and its special cases.

The family is

    V(r) = -a V0 coth(alpha r) + b V1 coth^2(alpha r)
           - c V2 cosech^2(alpha r) + d

with depths V0, V1, V2 and screening rate alpha > 0. As coth^2 =
1 + cosech^2, it is the Eckart form -A coth + B cosech^2 + C, whose
coefficients PotentialParams.A, .B and .C hold; named special cases zero
out (or flip) coefficients. V tends to C - A as r -> infinity and is
singular at the origin whenever a, b or c is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationOverflowError
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
        for name in ("a", "b", "c", "d", "V0", "V1", "V2", "alpha"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise DomainError(f"PotentialParams: {name} must be a finite real, got {val!r}")
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
        for name in ("hbar", "mass"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise DomainError(f"PhysicalConstants: {name} must be positive and finite")

    @property
    def s(self):
        """hbar^2/(2m), the only place hbar and m are combined."""
        return self.hbar**2 / (2.0 * self.mass)


def _eval_from_pair(params, coth, csch2):
    """Assemble the four terms from precomputed coth and cosech^2 values.

    Terms with a zero coefficient are skipped so that, say, a pure-constant
    potential stays exact even where cosech^2 would overflow.
    """
    out = np.zeros_like(np.asarray(coth, dtype=float)) + params.d
    if params.a * params.V0 != 0.0:
        out = out - params.a * params.V0 * coth
    if params.b * params.V1 != 0.0:
        out = out + params.b * params.V1 * coth * coth
    if params.c * params.V2 != 0.0:
        out = out - params.c * params.V2 * csch2
    return out


_TERM_NAMES = (
    ("a", "V0", "a*V0*coth"),
    ("b", "V1", "b*V1*coth^2"),
    ("c", "V2", "c*V2*cosech^2"),
)


def _name_offender(params, coth, csch2):
    # identify which active term went non-finite, for the error message
    pieces = {
        "a*V0*coth": params.a * params.V0 * np.asarray(coth),
        "b*V1*coth^2": params.b * params.V1 * np.asarray(coth) ** 2,
        "c*V2*cosech^2": params.c * params.V2 * np.asarray(csch2),
    }
    for coeff, depth, label in _TERM_NAMES:
        if getattr(params, coeff) * getattr(params, depth) != 0.0:
            if not np.all(np.isfinite(pieces[label])):
                return label
    return "potential"


def _potential_values(params, arr):
    """(V, coth, cosech^2) on a float array whose alpha r all lie in (0, inf).

    Does not raise on overflow: V is non-finite wherever an active term is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coth, csch2 = hyperbolic_pair(params.alpha * arr)
        return _eval_from_pair(params, coth, csch2), coth, csch2


def _barrier(params, consts, l, arr, approximate):
    """s l(l+1)/r^2, or its surrogate with alpha^2 cosech^2(alpha r) for 1/r^2."""
    coef = consts.s * l * (l + 1)
    if approximate:
        return coef * params.alpha**2 * hyperbolic_pair(params.alpha * arr)[1]
    return coef / (arr * arr)


def eval_potential(params: PotentialParams, r):
    """V(r) for r > 0, shaped like r.

    Raises DomainError for r outside (0, inf) and EvaluationOverflowError,
    naming the term, if an active term evaluates non-finite.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError("eval_potential: r must lie in (0, inf)")
    out, coth, csch2 = _potential_values(params, arr)
    bad = ~np.isfinite(out)
    if np.any(bad):
        term = _name_offender(params, coth, csch2)
        raise EvaluationOverflowError(
            f"eval_potential: term {term} is non-finite at r = {float(arr[bad][0])}")
    return out


def effective_potential(params, consts, l, r, approximate=False):
    """V(r) plus the centrifugal barrier of l (the cosech^2 surrogate with
    approximate), shaped like r; raises as eval_potential does."""
    v = eval_potential(params, r)
    if l:
        v = v + _barrier(params, consts, l, np.asarray(r, dtype=float), approximate)
    return v


def centrifugal_approx(alpha: float, r):
    """The short-range replacement for 1/r^2 and its pointwise quality.

    Returns ``(approx, exact, rel_error)``, each shaped like r, where
    approx = alpha^2 cosech^2(alpha r), exact = 1/r^2 and rel_error =
    |approx - exact| r^2 = 1 - (alpha r)^2 cosech^2(alpha r). A series
    branch below alpha r = 1e-3 avoids the cancellation in the direct
    difference; the leading behaviour is (alpha r)^2 / 3.
    """
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"centrifugal_approx: alpha must be positive, got {alpha!r}")
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError("centrifugal_approx: r must lie in (0, inf)")
    x = alpha * arr
    _, csch2 = hyperbolic_pair(x)
    x2 = x * x
    series = x2 / 3.0 - x2 * x2 / 15.0 + 2.0 * x2 * x2 * x2 / 189.0
    rel = np.where(x < 1e-3, series, np.abs(1.0 - x2 * csch2))
    return alpha**2 * csch2, 1.0 / (arr * arr), rel


def scan_series(params, r_values, consts=None, l=0, approximate=False):
    """Evaluate V (or the effective potential) on a sequence of r values.

    Returns a list aligned with r_values in which every entry is a float
    or None; None is an explicit gap marker for points where a term
    overflowed or r was outside the domain. Gaps are never dropped.
    """
    r = np.asarray(r_values, dtype=float)
    out = np.full(r.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = params.alpha * r
        inside = np.isfinite(x) & (x > 0.0)
        r_in = r[inside]
        values = _potential_values(params, r_in)[0]
        if l:
            values = values + _barrier(params, consts, l, r_in, approximate)
    out[inside] = values
    return [float(v) if math.isfinite(v) else None for v in out]


def rosen_morse_params(a, c, V0, V2, alpha):
    """Rosen-Morse shape: b = d = 0.

    The coefficient a is stored exactly as given. The printed special-case
    formula for this shape corresponds to negating it (the sweep plots use
    a = -1 to flip the coth term's sign), so both sign conventions are
    reachable here; none is imposed.
    """
    return PotentialParams(a=a, b=0.0, c=c, d=0.0, V0=V0, V1=0.0, V2=V2, alpha=alpha)


def poschl_teller_params(c, V2, alpha):
    """Poschl-Teller shape: a = b = d = 0 and c stored negated.

    The family's cosech^2 term enters with a minus sign; this shape is
    defined with the opposite sign, so the incoming c is negated to store
    coefficients that reproduce +c V2 cosech^2 through the family formula.
    """
    return PotentialParams(a=0.0, b=0.0, c=-c, d=0.0, V0=0.0, V1=0.0, V2=V2, alpha=alpha)


def scarf_params(b, V1, alpha):
    """Scarf shape: a = c = d = 0. Even in coth, via the b-only term."""
    return PotentialParams(a=0.0, b=b, c=0.0, d=0.0, V0=0.0, V1=V1, V2=0.0, alpha=alpha)



# potential --kind: the shape constructor applied to a potential block
KINDS = {
    "general": lambda p: p,
    "rosen-morse": lambda p: rosen_morse_params(a=p.a, c=p.c, V0=p.V0, V2=p.V2, alpha=p.alpha),
    "poschl-teller": lambda p: poschl_teller_params(c=p.c, V2=p.V2, alpha=p.alpha),
    "scarf": lambda p: scarf_params(b=p.b, V1=p.V1, alpha=p.alpha),
}
