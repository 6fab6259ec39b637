"""Potential family: evaluation, asymptote, centrifugal surrogate, special shapes."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hyperwell.errors import DomainError, EvaluationOverflowError
from hyperwell.potential import (
    KINDS,
    PhysicalConstants,
    PotentialParams,
    effective_potential,
    eval_potential,
    scan_series,
)
from hyperwell.special import hyperbolic_pair

DEMO = PotentialParams(a=1.0, b=0.01, c=2.0, d=2.0, V0=1.0, V1=0.5, V2=0.02, alpha=1.0)
CONSTS = PhysicalConstants(hbar=1.0, mass=0.5)


def reference_potential(p, r):
    coth = math.cosh(p.alpha * r) / math.sinh(p.alpha * r)
    csch2 = 1.0 / math.sinh(p.alpha * r) ** 2
    return -p.a * p.V0 * coth + p.b * p.V1 * coth**2 - p.c * p.V2 * csch2 + p.d


class TestEvalPotential:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = float(rng.uniform(0.05, 30.0))
            assert eval_potential(DEMO, r) == pytest.approx(reference_potential(DEMO, r), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        r = np.geomspace(1e-4, 40.0, 50)
        v = eval_potential(DEMO, r)
        for i, ri in enumerate(r):
            assert v[i] == pytest.approx(eval_potential(DEMO, float(ri)), rel=1e-14)

    def test_asymptote(self):
        # -a V0 + b V1 + d
        assert DEMO.asymptote == pytest.approx(1.005)
        assert eval_potential(DEMO, 25.0) == pytest.approx(DEMO.asymptote, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_potential(DEMO, 0.0)
        with pytest.raises(DomainError):
            eval_potential(DEMO, -1.0)
        with pytest.raises(DomainError):
            eval_potential(DEMO, float("nan"))

    @pytest.mark.parametrize("params, r, term", [
        (DEMO, 1e-200, "b*V1*coth^2"),
        (replace(DEMO, b=0.0), 1e-200, "c*V2*cosech^2"),
        (PotentialParams(a=1.0, b=0, c=0, d=0, V0=1.0, V1=0, V2=0, alpha=1.0), 1e-310,
         "a*V0*coth"),
    ])
    def test_overflow_names_the_term(self, params, r, term):
        # pytest turns warnings into errors, so no numpy warning may escape
        with pytest.raises(EvaluationOverflowError,
                           match=rf"term {re.escape(term)} is non-finite at r = {r}"):
            eval_potential(params, [r, 1.0])

    @pytest.mark.parametrize("approximate", [False, True])
    def test_overflow_names_the_barrier(self, approximate):
        # r^2 is subnormal at 5e-155, so both barriers overflow there
        r = 5e-155
        with pytest.raises(EvaluationOverflowError,
                           match=rf"term centrifugal barrier is non-finite at r = {r}"):
            effective_potential(replace(DEMO, alpha=2.0), CONSTS, 1, [r, 1.0],
                                approximate=approximate)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            PotentialParams(a=1, b=0, c=0, d=0, V0=1, V1=0, V2=0, alpha=-1.0)
        with pytest.raises(DomainError):
            PotentialParams(a=float("inf"), b=0, c=0, d=0, V0=1, V1=0, V2=0, alpha=1.0)


class TestCentrifugalApprox:
    """The surrogate alpha^2 cosech^2(alpha r) for 1/r^2 errs by
    1 - (alpha r)^2 cosech^2(alpha r) relative to it."""

    @staticmethod
    def rel_error(alpha, r):
        x = alpha * r
        return abs(1.0 - x * x * float(hyperbolic_pair(x)[1]))

    def test_leading_order(self):
        # rel error -> (alpha r)^2 / 3 as r -> 0
        for alpha in (0.5, 1.0, 3.0):
            rel = self.rel_error(alpha, 1e-5 / alpha)
            assert rel == pytest.approx((1e-5) ** 2 / 3.0, rel=1e-4)

    def test_pointwise_bound_envelope(self):
        # measured relative error <= 1.1 (alpha r)^2 / 3 on (0, 0.3]
        rng = np.random.default_rng(23)
        for _ in range(400):
            alpha = float(rng.uniform(0.2, 5.0))
            x = float(rng.uniform(1e-6, 0.3))
            assert self.rel_error(alpha, x / alpha) <= 1.1 * x * x / 3.0


class TestEffectivePotential:
    """effective_potential, and scan_series with l > 0: V plus the exact or
    the surrogate barrier."""

    def test_l_zero_is_bare(self):
        r = np.linspace(0.1, 5.0, 9)
        assert np.allclose(scan_series(DEMO, r, consts=CONSTS, l=0), eval_potential(DEMO, r))
        assert np.array_equal(effective_potential(DEMO, CONSTS, 0, r), eval_potential(DEMO, r))

    def test_exact_barrier(self):
        r = 0.7
        want = eval_potential(DEMO, r) + 1.0**2 * 2 * 3 / (2 * 0.5) / r**2
        assert scan_series(DEMO, [r], consts=CONSTS, l=2)[0] == pytest.approx(want, rel=1e-14)
        assert effective_potential(DEMO, CONSTS, 2, [r]) == pytest.approx([want], rel=1e-14)
        with pytest.raises(DomainError):
            effective_potential(DEMO, CONSTS, 2, [r, -1.0])

    def test_approximate_barrier(self):
        r = 0.7
        csch2 = 1.0 / math.sinh(DEMO.alpha * r) ** 2
        want = eval_potential(DEMO, r) + (1.0 / (2 * 0.5)) * 2 * DEMO.alpha**2 * csch2
        got = scan_series(DEMO, [r], consts=CONSTS, l=1, approximate=True)[0]
        assert got == pytest.approx(want, rel=1e-14)
        got = effective_potential(DEMO, CONSTS, 1, [r], approximate=True)
        assert got == pytest.approx([want], rel=1e-14)

    def test_ordering_in_l(self):
        r = np.geomspace(1e-3, 30.0, 40)
        v1, v2, v3 = (np.array(scan_series(DEMO, r, consts=CONSTS, l=l)) for l in (1, 2, 3))
        assert np.all(v1 < v2) and np.all(v2 < v3)


class TestScanSeries:
    def test_gap_markers(self):
        vals = scan_series(DEMO, [0.5, -1.0, 1.5])
        assert vals[0] is not None and vals[2] is not None
        assert vals[1] is None

    def test_alignment(self):
        r = [0.2, 0.4, 0.8]
        vals = scan_series(DEMO, r)
        assert len(vals) == 3
        for ri, vi in zip(r, vals):
            assert vi == pytest.approx(eval_potential(DEMO, ri))

    def test_effective_path(self):
        vals = scan_series(DEMO, [0.5], consts=CONSTS, l=2)
        assert vals[0] == pytest.approx(eval_potential(DEMO, 0.5) + 6.0 / 0.25, rel=1e-14)

    def test_overflowing_barrier_is_a_gap(self):
        # r^2 is subnormal at 5e-155, so both barriers overflow there
        params = replace(DEMO, alpha=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for approximate in (False, True):
                vals = scan_series(params, [5e-155, 0.5], consts=CONSTS, l=1,
                                   approximate=approximate)
                assert vals[0] is None
                assert vals[1] == scan_series(params, [0.5], consts=CONSTS, l=1,
                                              approximate=approximate)[0]


class TestSpecialCases:
    """Each --kind of KINDS applied to a block with every coefficient set."""

    def test_rosen_morse_zeroes(self):
        p = KINDS["rosen-morse"](replace(DEMO, a=-1.0))
        assert p.b == 0.0 and p.d == 0.0 and p.V1 == 0.0
        assert p.a == -1.0  # stored exactly as given
        assert (p.c, p.V0, p.V2, p.alpha) == (2.0, 1.0, 0.02, 1.0)

    def test_poschl_teller_negates_c(self):
        p = KINDS["poschl-teller"](replace(DEMO, c=-2.0))
        assert p.a == 0.0 and p.b == 0.0 and p.d == 0.0 and p.V0 == 0.0 and p.V1 == 0.0
        assert p.c == 2.0
        # the family formula then yields +c_in V2 csch^2 = -2 V2 csch^2 < 0... sign check:
        # V = -c_stored V2 csch^2 = -2 V2 csch^2, matching +c_in V2 csch^2 with c_in = -2
        r = 0.9
        csch2 = 1.0 / math.sinh(r) ** 2
        assert eval_potential(p, r) == pytest.approx(-2.0 * 0.02 * csch2, rel=1e-12)

    def test_scarf_even_in_coth(self):
        p = KINDS["scarf"](replace(DEMO, b=0.05))
        assert p.a == 0.0 and p.c == 0.0 and p.d == 0.0 and p.V0 == 0.0 and p.V2 == 0.0
        # depends on coth^2 only: even under coth -> -coth, so algebraically
        # V(r) = b V1 coth^2(alpha r)
        r = 1.3
        coth = math.cosh(r) / math.sinh(r)
        assert eval_potential(p, r) == pytest.approx(0.05 * 0.5 * coth**2, rel=1e-12)

    def test_with_alpha(self):
        # a copy at another alpha, as `potential --alpha` takes, is validated again
        p = replace(DEMO, alpha=3.0)
        assert p.alpha == 3.0
        assert p.a == DEMO.a and p.V2 == DEMO.V2
        with pytest.raises(DomainError):
            replace(DEMO, alpha=0.0)


class TestConstants:
    def test_defaults_natural_units(self):
        c = PhysicalConstants()
        assert c.hbar == 1.0 and c.mass == 0.5  # hbar^2/(2m) = 1

    def test_validation(self):
        with pytest.raises(DomainError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(DomainError):
            PhysicalConstants(mass=-1.0)
