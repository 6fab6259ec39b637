"""Exact levels of the surrogate radial problem.

The family potential is the Eckart form V = -A coth(alpha r) +
B cosech^2(alpha r) + C. Replacing the centrifugal term s l(l+1)/r^2 by
its surrogate s l(l+1) alpha^2 cosech^2(alpha r), the approximation the
closed forms rest on, only shifts B to B + s l(l+1) alpha^2, so the
surrogate problem is Eckart at every l (C. Eckart, Phys. Rev. 35, 1303
(1930)). In the map `potential.dimensionless`, with A, B and C over
s alpha^2, its levels are

    eps_(n,l) = C - (n + kappa_l)^2 - A^2 / (4 (n + kappa_l)^2),
    kappa_l = 1/2 + sqrt(1/4 + B + l(l+1)),

and level n is bound only while A > 2 (n + kappa_l)^2. The formula
returns a value for every n, also below the asymptote C - A for some
unbound n, so the bound flag must gate every use of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_index
from .potential import Dimensionless


@dataclass(frozen=True)
class ExactLevel:
    n: int
    l: int
    energy: float  # the Eckart formula's value, in the config's unit; a level only when bound
    bound: bool


def kappa_radicand(m: Dimensionless, l) -> float:
    """1/4 + B/(s alpha^2) + l(l+1), the radicand of kappa_l.

    Negative where the attractive cosech^2 term falls to the centre: kappa_l
    is then not real, and bound states cease to exist. Infinite where
    B/(s alpha^2) overflows, with the sign of B (nan where B = 0 and s alpha^2
    underflows to 0).
    """
    return 0.25 + m.B + l * (l + 1)


def fall_to_center_unreliable(m: Dimensionless, l) -> bool:
    """True when the origin's inverse-square coefficient is attractive past
    the critical -hbar^2/(8m) (kappa_radicand < 0), where ground-truth
    bound states cease to exist and grid results depend on r_min."""
    return kappa_radicand(m, l) < 0.0


def surrogate_level(m: Dimensionless, n, l) -> ExactLevel:
    """Level n of the surrogate problem at angular momentum l.

    Raises DomainError where kappa_radicand is negative (fall to centre).
    """
    require_index(n, "surrogate_level: n")
    require_index(l, "surrogate_level: l")
    radicand = kappa_radicand(m, l)
    if radicand < 0.0:
        raise DomainError(
            f"surrogate_level: 1/4 + B/(s alpha^2) + l(l+1) = {radicand} < 0 (fall to centre)")
    root = n + 0.5 + math.sqrt(radicand)
    q = root * root
    return ExactLevel(int(n), int(l), m.scale * (m.C - q - m.A * m.A / (4.0 * q)), m.A > 2.0 * q)
