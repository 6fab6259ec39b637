"""Independent references for the benchmark's output checks.

Written from the formulas alone; nothing here imports hyperwell. With
s = hbar^2/(2m), the family

    V(r) = -a V0 coth(alpha r) + b V1 coth^2(alpha r) - c V2 cosech^2(alpha r) + d

is, because coth^2 = 1 + cosech^2,

    V(r) = -A coth(alpha r) + B cosech^2(alpha r) + C,
    A = a V0,  B = b V1 - c V2,  C = b V1 + d,

which at l = 0 is the Eckart potential (C. Eckart, Phys. Rev. 35, 1303
(1930)). Its s-wave levels are

    E_n = C - s alpha^2 (n + kappa)^2 - A^2 / (4 s alpha^2 (n + kappa)^2),
    kappa = 1/2 + sqrt(1/4 + B / (s alpha^2)),

and level n is bound (below the asymptote C - A) while
A > 2 s alpha^2 (n + kappa)^2.
"""

from __future__ import annotations

import math

import numpy as np


def family(p: dict):
    """(A, B, C) of the Eckart form for a dict of the eight family parameters."""
    return p["a"] * p["V0"], p["b"] * p["V1"] - p["c"] * p["V2"], p["b"] * p["V1"] + p["d"]


def asymptote(p: dict) -> float:
    """Limit of V(r) as r -> infinity: C - A."""
    A, _, C = family(p)
    return C - A


def potential(p: dict, r) -> tuple:
    """(V(r), sum of the terms' magnitudes), straight from numpy.cosh and
    numpy.sinh, term by term.

    Terms whose coefficient product is zero are left out, so an overflow in
    an unused term cannot turn the sum into nan. The sum of magnitudes
    bounds the rounding of V.
    """
    x = p["alpha"] * np.asarray(r, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sh = np.sinh(x)
        coth = np.cosh(x) / sh
        csch2 = 1.0 / (sh * sh)
        coth = np.where(np.isfinite(coth), coth, 1.0)  # cosh/sinh = inf/inf beyond x ~ 710
    terms = [np.full_like(x, p["d"])]
    if p["a"] * p["V0"] != 0.0:
        terms.append(-p["a"] * p["V0"] * coth)
    if p["b"] * p["V1"] != 0.0:
        terms.append(p["b"] * p["V1"] * coth * coth)
    if p["c"] * p["V2"] != 0.0:
        terms.append(-p["c"] * p["V2"] * csch2)
    return sum(terms), sum(np.abs(t) for t in terms)


def barrier(p: dict, s: float, l: int, r, approximate: bool) -> np.ndarray:
    """The centrifugal term s l(l+1)/r^2, or its surrogate s l(l+1) alpha^2 cosech^2(alpha r)."""
    r = np.asarray(r, dtype=float)
    if approximate:
        with np.errstate(over="ignore"):
            return s * l * (l + 1) * p["alpha"] ** 2 / np.sinh(p["alpha"] * r) ** 2
    return s * l * (l + 1) / (r * r)


def kappa(p: dict, s: float) -> float:
    """The origin exponent of the s-wave solution, u ~ r^kappa; needs B/(s alpha^2) >= -1/4."""
    _, B, _ = family(p)
    return 0.5 + math.sqrt(0.25 + B / (s * p["alpha"] ** 2))


def eckart_level(p: dict, s: float, n: int):
    """(E_n, bound) for the s-wave level n."""
    A, _, C = family(p)
    m = n + kappa(p, s)
    a2 = s * p["alpha"] ** 2
    return C - a2 * m * m - A * A / (4.0 * a2 * m * m), A > 2.0 * a2 * m * m


def fall_to_center(p: dict, s: float, l: int) -> bool:
    """True when the origin's inverse-square coefficient is below -s/4.

    Near r = 0, cosech^2(alpha r) ~ 1/(alpha r)^2, so the effective
    potential behaves as g / r^2 with g = B/alpha^2 + s l(l+1); the radial
    operator is unbounded below (the particle falls to the centre) when
    g < -s/4.
    """
    _, B, _ = family(p)
    return B / p["alpha"] ** 2 + s * l * (l + 1) < -s / 4.0



def fd_error_estimate(p: dict, s: float, r_min: float, r_max: float, n_points: int) -> float:
    """First-order energy error of the three-point finite-difference ground state.

    Applies the three-point stencil D2, with Dirichlet ends, to the exact
    Eckart ground state u = sinh(alpha r)^kappa exp(-t alpha r),
    t = A / (2 s alpha^2 kappa), sampled on the oracle's own grid. Since
    H u = E u exactly, the grid Rayleigh quotient of u is

        E - s sum_j u_j (D2 u_j - d2u(r_j)) / sum_j u_j^2,

    where d2u = (V - E) u / s is the exact second derivative, and its
    distance from E is the discretization error to first order. Unlike the
    smooth-function estimate from the fourth derivative, this stays right
    for 1 < kappa < 3/2, where u ~ r^kappa makes the error fall as
    h^(2 kappa - 1) and come from the first few grid points.
    """
    A, _, _ = family(p)
    alpha = p["alpha"]
    k = kappa(p, s)
    t = A / (2.0 * s * alpha * alpha * k)
    r = np.linspace(r_min, r_max, n_points)
    h = r[1] - r[0]
    x = alpha * r
    with np.errstate(divide="ignore"):  # r_min = 0 gives log 0 = -inf, u = 0
        log_u = k * np.log(np.sinh(x)) - t * x
    u = np.exp(log_u - np.max(log_u))
    u[0] = u[-1] = 0.0
    e_level, _ = eckart_level(p, s, 0)
    v, _ = potential(p, r[1:-1])
    d2u = (v - e_level) * u[1:-1] / s
    stencil = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    return float(s * np.sum(np.abs(u[1:-1] * (stencil - d2u))) / np.sum(u[1:-1] ** 2))


def shape(kind: str, p: dict) -> dict:
    """Family parameters of a named shape built from a config's coefficients.

    rosen-morse: -a V0 coth + (-c V2) cosech^2 (b = d = 0);
    poschl-teller: +c V2 cosech^2, the family's c negated (a = b = d = 0);
    scarf: b V1 coth^2 (a = c = d = 0).
    """
    zero = {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0, "V0": 0.0, "V1": 0.0, "V2": 0.0,
            "alpha": p["alpha"]}
    if kind == "general":
        return dict(p)
    if kind == "rosen-morse":
        return {**zero, "a": p["a"], "c": p["c"], "V0": p["V0"], "V2": p["V2"]}
    if kind == "poschl-teller":
        return {**zero, "c": -p["c"], "V2": p["V2"]}
    if kind == "scarf":
        return {**zero, "b": p["b"], "V1": p["V1"]}
    raise ValueError(f"unknown shape {kind!r}")
