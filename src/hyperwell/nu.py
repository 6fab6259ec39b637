"""Reduction engine for hypergeometric-type second-order ODEs.

Works on the standard form

    chi'' + (tau_bar / sigma) chi' + (sigma_bar / sigma^2) chi = 0

with sigma, sigma_bar of degree <= 2 and tau_bar of degree <= 1. The
engine finds the shift constants k that make the auxiliary radicand a
perfect square, builds pi and tau = tau_bar + 2 pi for every branch,
keeps the branches with Re(tau') < 0, and exposes the two eigenvalue
expressions lambda = k + pi' and lambda_n = -n tau' - n(n-1) sigma''/2.
A caller enumerates the branches once and selects from that list.

Everything is computed mechanically from the input triple. Where a
published closed form for a specific family disagrees with the mechanical
result, the caller records the difference rather than patch either side.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .errors import DomainError, NoPhysicalBranchError, StructureError, require_index
from .special import principal_sqrt, solve_quadratic


@dataclass(frozen=True)
class Poly:
    """Polynomial c0 + c1 s + c2 s^2 with complex coefficients."""

    c0: complex = 0.0
    c1: complex = 0.0
    c2: complex = 0.0

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            if not cmath.isfinite(complex(getattr(self, name))):
                raise StructureError(f"Poly: coefficient {name} must be finite")

    def __call__(self, s):
        return self.c0 + s * (self.c1 + s * self.c2)

    def derivative(self) -> "Poly":
        return Poly(self.c1, 2.0 * self.c2, 0.0)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0


@dataclass(frozen=True)
class NUProblem:
    sigma: Poly
    sigma_bar: Poly
    tau_bar: Poly

    def __post_init__(self):
        if self.sigma.is_zero():
            raise StructureError("NUProblem: sigma must not be identically zero")
        if self.tau_bar.c2 != 0:
            raise StructureError("NUProblem: tau_bar must have degree <= 1")


@dataclass(frozen=True)
class NUSolution:
    k: complex
    pi: Poly
    tau: Poly
    lam: complex  # k + pi'
    branch: tuple  # (k label, pi sign label)
    multiplicity: int = 1

    @property
    def tau_prime(self):
        return complex(self.tau.c1)


def _half_gap(problem: NUProblem) -> Poly:
    # q = (sigma' - tau_bar)/2, degree <= 1
    sp = problem.sigma.derivative()
    return Poly((sp.c0 - problem.tau_bar.c0) / 2.0, (sp.c1 - problem.tau_bar.c1) / 2.0, 0.0)


def radicand_coeffs(problem: NUProblem, k) -> Poly:
    """The polynomial under the square root in pi, q(s)^2 - sigma_bar + k sigma."""
    k = complex(k)
    if not cmath.isfinite(k):
        raise DomainError("radicand_coeffs: k must be finite")
    q = _half_gap(problem)
    sb, sg = problem.sigma_bar, problem.sigma
    return Poly(
        q.c0 * q.c0 - sb.c0 + k * sg.c0,
        2.0 * q.c0 * q.c1 - sb.c1 + k * sg.c1,
        q.c1 * q.c1 - sb.c2 + k * sg.c2,
    )


def k_candidates(problem: NUProblem):
    """All k for which the radicand is a perfect square.

    The radicand's s-discriminant B(k)^2 - 4 A(k) C(k) is itself a
    quadratic in k; its roots are the candidates. A degenerate (linear)
    k-equation yields a single candidate.
    """
    sg = problem.sigma
    # the radicand at k = 0: A(k) = a0 + k sigma.c2, B(k) = b0 + k sigma.c1
    # and C(k) = c0 + k sigma.c0
    rad = radicand_coeffs(problem, 0.0)
    c0, b0, a0 = rad.c0, rad.c1, rad.c2
    k2 = sg.c1 * sg.c1 - 4.0 * sg.c2 * sg.c0
    k1 = 2.0 * b0 * sg.c1 - 4.0 * (a0 * sg.c0 + c0 * sg.c2)
    k0 = b0 * b0 - 4.0 * a0 * c0
    if k2 == 0 and k1 == 0:
        if k0 == 0:
            raise StructureError(
                "k_candidates: the radicand discriminant vanishes identically; "
                "every k produces a perfect square")
        raise StructureError("k_candidates: no k makes the radicand a perfect square")
    return list(solve_quadratic(k2, k1, k0))


def _radicand_sqrt(rad: Poly) -> Poly:
    """Linear square root of a (numerically) zero-discriminant quadratic."""
    scale = max(abs(rad.c2), abs(rad.c1), abs(rad.c0), 1.0)
    if abs(rad.c2) > 1e-13 * scale:
        lead = principal_sqrt(rad.c2)
        return Poly(rad.c1 / (2.0 * lead), lead, 0.0)
    if abs(rad.c1) > 1e-10 * scale:
        raise StructureError(
            "radicand is linear in s and cannot be a perfect square; "
            "was k taken from k_candidates?")
    return Poly(principal_sqrt(rad.c0), 0.0, 0.0)


_K_LABELS = ("PlusSqrtK", "MinusSqrtK")
_PI_LABELS = {1.0: "PlusPi", -1.0: "MinusPi"}


def enumerate_branches(problem: NUProblem):
    """All (k, pi sign) branches as unselected NUSolution records.

    Ordered by k candidate, then + before - pi sign, so ``branches[::2]``
    holds one branch per k candidate in k_candidates order.
    """
    q = _half_gap(problem)
    branches = []
    ks = k_candidates(problem)
    for idx, k in enumerate(ks):
        root = _radicand_sqrt(radicand_coeffs(problem, k))
        for sign in (1.0, -1.0):
            pi = Poly(q.c0 + sign * root.c0, q.c1 + sign * root.c1, 0.0)
            tau = Poly(
                problem.tau_bar.c0 + 2.0 * pi.c0,
                problem.tau_bar.c1 + 2.0 * pi.c1,
                0.0,
            )
            lam = k + pi.c1
            label = _K_LABELS[idx] if len(ks) == 2 else "SingleK"
            branches.append(NUSolution(
                k=complex(k), pi=pi, tau=tau, lam=complex(lam),
                branch=(label, _PI_LABELS[sign]),
            ))
    return branches


def pi_tau_select(branches) -> NUSolution:
    """Pick the branch with Re(tau') < 0 from an enumerate_branches list.

    When several branches qualify, the one with the most negative Re(tau')
    is returned and ``multiplicity`` says how many qualified. With no
    qualifying branch a NoPhysicalBranchError lists every tau'.
    """
    admissible = [b for b in branches if b.tau_prime.real < 0.0]
    if not admissible:
        taus = [b.tau_prime for b in branches]
        raise NoPhysicalBranchError(
            f"no branch has Re(tau') < 0; tau' candidates: {taus}", tau_primes=taus)
    primary = min(admissible, key=lambda b: b.tau_prime.real)
    return replace(primary, multiplicity=len(admissible))


def lambda_n_of(problem: NUProblem, tau: Poly, n) -> complex:
    """The discrete eigenvalue -n tau' - n(n-1) sigma''/2 for integer n >= 0."""
    require_index(n, "lambda_n_of: n")
    sigma_pp = 2.0 * problem.sigma.c2
    return -float(n) * complex(tau.c1) - 0.5 * float(n) * float(n - 1) * complex(sigma_pp)
