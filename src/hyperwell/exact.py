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
unbound n, so the bound flag must gate every use of it. `eckart_state`
builds the level's state from the Nikiforov-Uvarov solution in
y = exp(-2 alpha r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import RadialWavefunction
from .errors import DomainError, require_index
from .nu import NUProblem, Poly, enumerate_branches, pi_tau_select, state_factors
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


def _root(m: Dimensionless, n, l) -> float:
    """n + kappa_l; DomainError where kappa_radicand is negative (fall to centre)."""
    require_index(n, "surrogate_level: n")
    require_index(l, "surrogate_level: l")
    radicand = kappa_radicand(m, l)
    if radicand < 0.0:
        raise DomainError(
            f"surrogate_level: 1/4 + B/(s alpha^2) + l(l+1) = {radicand} < 0 (fall to centre)")
    return n + 0.5 + math.sqrt(radicand)


def surrogate_level(m: Dimensionless, n, l) -> ExactLevel:
    """Level n of the surrogate problem at angular momentum l.

    Raises DomainError where kappa_radicand is negative (fall to centre).
    """
    root = _root(m, n, l)
    q = root * root
    return ExactLevel(int(n), int(l), m.scale * (m.C - q - m.A * m.A / (4.0 * q)), m.A > 2.0 * q)


def eckart_state(m: Dimensionless, n, l) -> RadialWavefunction:
    """The surrogate's state of level n at l, unnormalized,

        u(r) = y^mu (1 - y)^kappa_l P_n^(2 mu, 2 kappa_l - 1)(1 - 2y),  y = exp(-2 alpha r),

    from nu.state_factors on the Eckart triple in y at the exact level:
    sigma = y (1 - y), tau_bar = 1 - y and sigma_bar = (eps + a) -
    (2 eps + 4 b_l) y + (eps - a) y^2, with eps = (E/(s alpha^2) - C)/4,
    a = A/4 and b_l = (B + l(l+1))/4 in the map m. The lower root's factor
    is s - s_1 and the upper's s_2 - s, both positive between the roots.
    Only a bound level (surrogate_level's flag) has a state. Raises
    DomainError at a fall to centre and StructureError where a coefficient
    of the triple is not finite.
    """
    q = _root(m, n, l) ** 2
    eps, a, b = -(q + m.A * m.A / (4.0 * q)) / 4.0, m.A / 4.0, (m.B + l * (l + 1)) / 4.0
    problem = NUProblem(sigma=Poly(0.0, 1.0, -1.0), tau_bar=Poly(1.0, -1.0, 0.0),
                        sigma_bar=Poly(eps + a, -(2.0 * eps + 4.0 * b), eps - a))
    lo, hi = sorted(state_factors(problem, pi_tau_select(enumerate_branches(problem))),
                    key=lambda f: f.root.real)
    width = hi.root - lo.root
    factors = ((-lo.root, 1.0, lo.exponent), (hi.root, -1.0, hi.exponent))
    return RadialWavefunction(m.alpha, "y", factors, int(n), (lo.jacobi, hi.jacobi),
                              ((lo.root + hi.root) / width, -2.0 / width))
