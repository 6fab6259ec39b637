"""Potential parameter sets the tests share: the FAULT well, the family
with unset coefficients zero, and two seeded draws.

A draw takes the caller's generator, so each test keeps its own seed and
stream.
"""

import math
from pathlib import Path

from hyperwell.config import parse_config
from hyperwell.potential import PotentialParams, dimensionless

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# an Eckart well with two deep s-wave levels, as in perfbench.inputs.FAULT,
# which keeps its own copy
FAULT = parse_config((CONFIGS / "eckart_bound.cfg").read_text()).params


def family_params(**kw):
    return PotentialParams(**{"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0,
                              "V0": 0.0, "V1": 0.0, "V2": 0.0, "alpha": 1.0, **kw})


def mapped(consts, grid, params=None):
    """The map of params (alpha = 1 when None) and consts on grid to rho
    and eps, as the solvers take it."""
    return dimensionless(params or family_params(), consts, grid)


def uniform_params(rng):
    """A draw of every potential coefficient from a fixed box."""
    return PotentialParams(
        a=float(rng.uniform(0.2, 2.0)), b=float(rng.uniform(0.0, 0.1)),
        c=float(rng.uniform(0.5, 3.0)), d=float(rng.uniform(-1.0, 3.0)),
        V0=float(rng.uniform(0.3, 2.0)), V1=float(rng.uniform(0.0, 1.0)),
        V2=float(rng.uniform(0.01, 0.1)), alpha=float(rng.uniform(0.5, 2.0)))


def seeded_params(rng):
    """An Eckart-type draw (s = hbar^2/2m = 1) with one deep s-wave level."""
    alpha = rng.uniform(1.0, 4.0)
    s2 = alpha * alpha
    B = rng.uniform(-0.2, 3.0) * s2
    k = 0.5 + math.sqrt(0.25 + B / s2)
    A = rng.uniform(2 * k * k + 3 * k, 1.7 * (1 + k) ** 2) * s2
    a = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
    b, bV1, V2 = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5) * s2, rng.uniform(0.5, 2.0)
    return PotentialParams(a=a, b=b, c=(bV1 - B) / V2, d=rng.uniform(-2.0, 2.0),
                           V0=A / a, V1=bV1 / b, V2=V2, alpha=alpha)
