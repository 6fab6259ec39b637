"""Nikiforov-Uvarov engine: radicand, k candidates, branch enumeration, selection."""

import numpy as np
import pytest

from hyperwell.errors import DomainError, NoPhysicalBranchError, StructureError
from hyperwell.nu import (
    NUProblem,
    Poly,
    enumerate_branches,
    k_candidates,
    lambda_n_of,
    pi_tau_select,
    radicand_coeffs,
)


def random_problem(rng):
    """A generic well-posed problem with degree-2 sigma."""
    sigma = Poly(complex(rng.normal(), rng.normal()),
                 complex(rng.normal(), rng.normal()),
                 complex(rng.normal(), rng.normal()) + 2.0)  # keep degree 2
    sigma_bar = Poly(complex(rng.normal(), rng.normal()),
                     complex(rng.normal(), rng.normal()),
                     complex(rng.normal(), rng.normal()))
    tau_bar = Poly(complex(rng.normal(), rng.normal()),
                   complex(rng.normal(), rng.normal()), 0.0)
    return NUProblem(sigma, sigma_bar, tau_bar)


class TestPoly:
    def test_call_and_derivative(self):
        p = Poly(1.0, -2.0, 3.0)
        assert p(2.0) == pytest.approx(1.0 - 4.0 + 12.0)
        assert p.derivative() == Poly(-2.0, 6.0, 0.0)
        assert Poly().is_zero()

    def test_nonfinite_rejected(self):
        with pytest.raises(StructureError):
            Poly(float("nan"), 0.0, 0.0)


class TestProblemValidation:
    def test_sigma_nonzero(self):
        with pytest.raises(StructureError):
            NUProblem(Poly(), Poly(1.0), Poly(1.0))

    def test_tau_bar_degree(self):
        with pytest.raises(StructureError):
            NUProblem(Poly(1.0), Poly(1.0), Poly(0.0, 0.0, 1.0))


class TestRadicandAndK:
    def test_zero_discriminant_property(self):
        # every k candidate makes the radicand a perfect square
        rng = np.random.default_rng(314)
        for _ in range(100):
            prob = random_problem(rng)
            for k in k_candidates(prob):
                rad = radicand_coeffs(prob, k)
                disc = rad.c1 * rad.c1 - 4.0 * rad.c2 * rad.c0
                scale = max(abs(rad.c1) ** 2, abs(4.0 * rad.c2 * rad.c0), 1.0)
                assert abs(disc) / scale < 1e-10

    def test_radicand_formula(self):
        # q^2 - sigma_bar + k sigma with q = (sigma' - tau_bar)/2
        prob = NUProblem(Poly(1.0, 0.0, 1.0), Poly(-0.3, 1.2, 0.7), Poly(0.5, 2.0, 0.0))
        k = 0.9 + 0.1j
        rad = radicand_coeffs(prob, k)
        # q = ((0 - 0.5) + (2 - 2) s)/2 = -0.25
        assert rad.c0 == pytest.approx((-0.25) ** 2 + 0.3 + k * 1.0)
        assert rad.c1 == pytest.approx(-1.2)
        assert rad.c2 == pytest.approx(-0.7 + k)

    def test_nonfinite_k_rejected(self):
        prob = NUProblem(Poly(1.0, 0.0, 1.0), Poly(1.0), Poly(1.0))
        with pytest.raises(DomainError):
            radicand_coeffs(prob, float("inf"))


class TestBranches:
    def test_structure_and_invariants(self):
        rng = np.random.default_rng(271)
        for _ in range(50):
            prob = random_problem(rng)
            branches = enumerate_branches(prob)
            ks = k_candidates(prob)
            assert len(branches) == 2 * len(ks)
            for b in branches:
                # tau = tau_bar + 2 pi, coefficientwise
                assert abs(b.tau.c0 - (prob.tau_bar.c0 + 2.0 * b.pi.c0)) < 1e-12
                assert abs(b.tau.c1 - (prob.tau_bar.c1 + 2.0 * b.pi.c1)) < 1e-12
                # lambda = k + pi'
                assert abs(b.lam - (b.k + b.pi.c1)) < 1e-12
                assert b.branch[1] in ("PlusPi", "MinusPi")

    def test_pi_solves_defining_quadratic(self):
        # pi^2 - (sigma' - tau_bar) pi + (sigma_bar - k sigma) = 0 at each branch
        rng = np.random.default_rng(999)
        for _ in range(50):
            prob = random_problem(rng)
            sp = prob.sigma.derivative()
            for b in enumerate_branches(prob):
                for s in (0.0, 0.7 - 0.2j, -1.3 + 1.1j):
                    pi_s = b.pi(s)
                    gap = sp(s) - prob.tau_bar(s)
                    val = pi_s * pi_s - gap * pi_s + (prob.sigma_bar(s) - b.k * prob.sigma(s))
                    scale = max(abs(pi_s) ** 2, abs(gap * pi_s), abs(prob.sigma_bar(s)), 1.0)
                    assert abs(val) / scale < 1e-8


class TestSelection:
    def test_textbook_oscillator(self):
        # y'' + (eps - s^2) y = 0: sigma = 1, tau_bar = 0, sigma_bar = eps - s^2.
        # Selection must give pi = -s, tau = -2s, and lambda = lambda_n => eps = 2n + 1.
        eps = 7.0  # n = 3
        prob = NUProblem(Poly(1.0), Poly(eps, 0.0, -1.0), Poly(0.0))
        sol = pi_tau_select(enumerate_branches(prob))
        assert sol.tau_prime.real < 0
        assert sol.pi.c1 == pytest.approx(-1.0)
        assert abs(sol.pi.c0) < 1e-12
        assert sol.tau.c1 == pytest.approx(-2.0)
        # lambda = k + pi' = eps - 1; lambda_n = 2n  =>  eps = 2n + 1
        assert sol.lam == pytest.approx(eps - 1.0)
        assert lambda_n_of(prob, sol.tau, 3) == pytest.approx(6.0)

    def test_most_negative_wins_and_alternatives_kept(self):
        rng = np.random.default_rng(77)
        seen_multi = False
        for _ in range(200):
            prob = random_problem(rng)
            branches = enumerate_branches(prob)
            try:
                sol = pi_tau_select(branches)
            except NoPhysicalBranchError as err:
                assert len(err.tau_primes) == len(branches)
                continue
            admissible = [b for b in branches if b.tau_prime.real < 0]
            assert sol.multiplicity == len(admissible)
            assert sol.tau_prime.real == min(b.tau_prime.real for b in admissible)
            if sol.multiplicity > 1:
                seen_multi = True
        assert seen_multi  # the sweep must exercise the multiple-branch path

    def test_no_physical_branch_error_payload(self):
        # sigma = 1, tau_bar = 0, sigma_bar = 0.5 + s^2: the single k candidate
        # is 0.5, the radicand is -s^2, so pi = +/- i s and tau' = +/- 2i --
        # purely imaginary on both branches, hence no Re(tau') < 0.
        prob = NUProblem(Poly(1.0), Poly(0.5, 0.0, 1.0), Poly(0.0))
        with pytest.raises(NoPhysicalBranchError) as exc:
            pi_tau_select(enumerate_branches(prob))
        assert all(t.real >= 0 for t in exc.value.tau_primes)


class TestLambdaN:
    def test_closed_form(self):
        prob = NUProblem(Poly(1.0, 0.0, 1.0), Poly(1.0), Poly(1.0))
        tau = Poly(0.3, -2.5, 0.0)
        for n in range(6):
            want = -n * (-2.5) - 0.5 * n * (n - 1) * 2.0
            assert lambda_n_of(prob, tau, n) == pytest.approx(want)

    def test_zero_at_n_zero(self):
        prob = NUProblem(Poly(1.0, 0.0, 1.0), Poly(1.0), Poly(1.0))
        assert lambda_n_of(prob, Poly(0.1, -9.9, 0.0), 0) == 0.0

    def test_invalid_n(self):
        prob = NUProblem(Poly(1.0), Poly(1.0), Poly(1.0))
        with pytest.raises(DomainError):
            lambda_n_of(prob, Poly(0.0, -1.0, 0.0), -1)
        with pytest.raises(DomainError):
            lambda_n_of(prob, Poly(0.0, -1.0, 0.0), 1.5)
