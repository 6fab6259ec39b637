"""Special-function layer: hyperbolic pair, stable quadratic, complex Jacobi."""

import math

import numpy as np
import pytest

from hyperwell.errors import DegenerateParameterError, DomainError, SingularCoefficientError
from hyperwell.special import (
    hyperbolic_pair,
    jacobi,
    principal_sqrt,
    solve_quadratic,
)


def _binom(z, m):
    """Generalized binomial C(z, m) for integer m >= 0 via the product form."""
    out = 1.0 + 0.0j
    for j in range(m):
        out *= (z - j) / (m - j)
    return out


def jacobi_sum(n, a, b, x):
    """P_n^(a,b)(x) by the explicit finite sum; the recurrence's test oracle.

    P_n = sum_s C(n+a, n-s) C(n+b, s) ((x-1)/2)^s ((x+1)/2)^(n-s)
    """
    x = np.asarray(x, dtype=complex)
    lo = (x - 1.0) / 2.0
    hi = (x + 1.0) / 2.0
    total = np.zeros_like(x)
    for s in range(n + 1):
        total = total + _binom(n + a, n - s) * _binom(n + b, s) * lo**s * hi ** (n - s)
    return total


class TestHyperbolicPair:
    def test_identity_coth_sq_minus_csch_sq(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            z = rng.uniform(1e-8, 19.0)
            coth, csch2 = hyperbolic_pair(z)
            assert abs(coth * coth - csch2 - 1.0) < 1e-11 * max(1.0, csch2)

    def test_matches_reference_moderate(self):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0, 15.0):
            coth, csch2 = hyperbolic_pair(z)
            assert coth == pytest.approx(math.cosh(z) / math.sinh(z), rel=1e-14)
            assert csch2 == pytest.approx(1.0 / math.sinh(z) ** 2, rel=1e-14)

    def test_large_argument_no_overflow(self):
        # naive cosh/sinh overflow near z ~ 710; the pair must stay finite
        for z in (50.0, 500.0, 5000.0):
            coth, csch2 = hyperbolic_pair(z)
            assert math.isfinite(coth) and math.isfinite(csch2)
            assert coth == pytest.approx(1.0, rel=1e-12)
            assert 0.0 <= csch2 < 1e-40

    def test_small_argument_leading_order(self):
        z = 1e-9
        coth, csch2 = hyperbolic_pair(z)
        assert coth == pytest.approx(1.0 / z, rel=1e-9)
        assert csch2 == pytest.approx(1.0 / z**2, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        z = np.array([1e-6, 0.3, 2.0, 40.0, 170.0])
        coth_v, csch2_v = hyperbolic_pair(z)
        for i, zi in enumerate(z):
            coth_s, csch2_s = hyperbolic_pair(float(zi))
            assert coth_v[i] == pytest.approx(coth_s, rel=1e-14, abs=1e-300)
            assert csch2_v[i] == pytest.approx(csch2_s, rel=1e-14, abs=1e-300)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            hyperbolic_pair(0.0)
        with pytest.raises(DomainError):
            hyperbolic_pair(np.array([1.0, -2.0]))


class TestPrincipalSqrt:
    def test_principal_branch(self):
        assert principal_sqrt(4.0) == pytest.approx(2.0)
        assert principal_sqrt(-4.0 + 0j) == pytest.approx(2j)
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            w = principal_sqrt(z)
            assert w.real >= 0.0
            assert w * w == pytest.approx(z, rel=1e-12, abs=1e-300)


class TestSolveQuadratic:
    def test_random_roots_reconstruct(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            c2 = complex(rng.normal(), rng.normal())
            c1 = complex(rng.normal(), rng.normal())
            c0 = complex(rng.normal(), rng.normal())
            roots = solve_quadratic(c2, c1, c0)
            assert len(roots) == 2
            for z in roots:
                scale = max(abs(c2 * z * z), abs(c1 * z), abs(c0), 1.0)
                assert abs(c2 * z * z + c1 * z + c0) / scale < 1e-12

    def test_cancellation_stability(self):
        # x^2 - 1e8 x + 1: naive formula loses the small root to cancellation
        roots = solve_quadratic(1.0, -1e8, 1.0)
        small = min(roots, key=abs)
        assert small == pytest.approx(1e-8, rel=1e-10)

    def test_branch_ordering(self):
        # (plus-root, minus-root) relative to the principal sqrt of the discriminant
        roots = solve_quadratic(1.0, -3.0, 2.0)  # roots 2 and 1, disc 1, sd 1
        assert roots[0] == pytest.approx(2.0)
        assert roots[1] == pytest.approx(1.0)

    def test_linear_degenerate(self):
        roots = solve_quadratic(0.0, 2.0, -3.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.5)
        assert abs(2.0 * roots[0] - 3.0) < 1e-14

    def test_double_root(self):
        roots = solve_quadratic(1.0, -2.0, 1.0)
        assert all(abs(z - 1.0) < 1e-7 for z in roots)

    def test_no_equation_rejected(self):
        with pytest.raises(SingularCoefficientError):
            solve_quadratic(0.0, 0.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            solve_quadratic(float("inf"), 1.0, 1.0)


class TestJacobi:
    def test_low_degree_closed_forms(self):
        a, b = 0.3 + 0.1j, -0.2 + 0.4j
        x = 0.37 - 0.81j
        assert jacobi(0, a, b, x) == pytest.approx(1.0 + 0j)
        p1 = ((a + b + 2.0) * x + (a - b)) / 2.0
        assert jacobi(1, a, b, x) == pytest.approx(p1, rel=1e-14)

    def test_recurrence_vs_explicit_sum(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            n = int(rng.integers(0, 9))
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            x = complex(rng.normal(), rng.normal())
            try:
                got = jacobi(n, a, b, x)
            except DegenerateParameterError:
                continue  # guard fired; the invariant only applies off the degenerate set
            want = jacobi_sum(n, a, b, x)
            scale = max(abs(want), 1.0)
            assert abs(got - want) / scale < 1e-10
            checked += 1

    def test_endpoint_identity(self):
        # P_n^(a,b)(1) = C(n+a, n) for integer a
        for a in range(0, 5):
            for n in range(0, 7):
                val = jacobi(n, float(a), 0.25, 1.0)
                want = math.comb(n + a, n)
                assert abs(val - want) < 1e-12 * max(1.0, want)

    def test_vectorized_argument(self):
        x = np.linspace(-1.0, 1.0, 11) + 0.1j
        got = jacobi(4, 0.5, 1.5, x)
        for i, xi in enumerate(x):
            assert got[i] == pytest.approx(jacobi(4, 0.5, 1.5, complex(xi)), rel=1e-12)

    def test_degenerate_recurrence_guard(self):
        # a + b = -2 makes the k=2 leading coefficient 2k(k+a+b)(2k+a+b-2) vanish
        with pytest.raises(DegenerateParameterError):
            jacobi(3, -1.0, -1.0, 0.3)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            jacobi(-1, 0.0, 0.0, 0.5)

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(DomainError):
            jacobi(2, float("nan"), 0.0, 0.5)
