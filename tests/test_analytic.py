"""Closed-form layer: dimensionless map, aux quantities, spectrum, wavefunction."""

import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from hyperwell import analytic, special
from hyperwell.analytic import (
    EnergyLevel,
    aux_quantities,
    closed_form_diagnostics,
    dimensionless_from_eps2,
    energy_levels,
    fidelity,
    nu_problem,
    ode_residual,
    printed_state,
    quantization_coefficients,
    radial_wavefunction,
)
from hyperwell.config import parse_config
from hyperwell.errors import (
    ConvergenceError,
    DomainError,
    NonNormalizableError,
    SingularCoefficientError,
)
from hyperwell.exact import eckart_state
from hyperwell.nu import Poly, enumerate_branches, lambda_n_of, pi_tau_select
from hyperwell.potential import PhysicalConstants, PotentialParams, dimensionless
from hyperwell.reporting import choose_level
from params import CONFIGS, FAULT, seeded_params, uniform_params

DEMO = PotentialParams(a=1.0, b=0.01, c=2.0, d=2.0, V0=1.0, V1=0.5, V2=0.02, alpha=1.0)
CONSTS = PhysicalConstants(hbar=1.0, mass=0.5)


def raw_wavefunction(params, level):
    """The level's unnormalized R(r): norm_constant 1."""
    return printed_state(params, level.n, level.dp)


def printed_eps2(params, consts, energy, l):
    """The printed map E -> eps^2 = -pref (E + beta^2/4 + c V2 - alpha^2 l(l+1) - d),
    with pref = 2m/(hbar^2 alpha^2) and beta^2 = pref a V0, transcribed apart
    from the library."""
    pref = 2.0 * consts.mass / (consts.hbar**2 * params.alpha**2)
    beta2 = pref * params.a * params.V0
    return -pref * (energy + beta2 / 4.0 + params.c * params.V2
                    - params.alpha**2 * l * (l + 1) - params.d)


def seeded_levels(count=40):
    """Levels of both variants at seeded parameters, s = hbar^2/2m drawn too."""
    rng = np.random.default_rng(2511)
    out = []
    while len(out) < count:
        params = uniform_params(rng)
        consts = PhysicalConstants(hbar=float(rng.uniform(0.5, 2.0)), mass=0.5)
        n, l = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        for variant in ("quadratic", "spectrum"):
            try:
                levels = energy_levels(params, consts, n, l, variant=variant)
            except SingularCoefficientError:
                continue
            out.extend((params, consts, lv) for lv in levels)
    return out


class TestDimensionless:
    def test_demo_coefficients(self):
        dp = energy_levels(DEMO, CONSTS, 0, 0)[0].dp
        # prefactor 2m/(hbar^2 alpha^2) = 1 in these units
        assert dp.beta2 == pytest.approx(1.0)
        assert dp.gamma2 == pytest.approx(0.035)  # 2*0.02 - 0.01*0.5
        assert dp.beta == pytest.approx(1.0)

    def test_eps2_definition(self):
        E = -0.7 + 0.2j
        # eps2 = -pref (E + beta2/4 + c V2 - alpha^2 l(l+1) - d)
        want = -(E + 0.25 + 0.04 - 2.0 - 2.0)
        assert printed_eps2(DEMO, CONSTS, E, 1) == pytest.approx(want)
        # each root's map holds the eps^2 that the printed map gives at its E
        for lv in energy_levels(DEMO, CONSTS, 1, 1):
            assert lv.dp.eps2 == pytest.approx(printed_eps2(DEMO, CONSTS, lv.energy, 1),
                                               rel=1e-10)

    def test_l_dependence_of_gamma2(self):
        dp0 = energy_levels(DEMO, CONSTS, 0, 0)[0].dp
        dp2 = energy_levels(DEMO, CONSTS, 0, 2)[0].dp
        assert dp2.gamma2 == pytest.approx(dp0.gamma2 - 6.0)

    def test_from_eps2_consistency(self):
        # each root's map is the map of its eps^2, both variants, seeded draws
        for params, consts, lv in seeded_levels():
            dp = dimensionless_from_eps2(dimensionless(params, consts), consts.s, lv.dp.eps2, lv.l)
            assert lv.dp == dp

    def test_nu_problem_triple(self):
        dp = energy_levels(DEMO, CONSTS, 0, 0)[0].dp
        prob = nu_problem(dp)
        assert prob.sigma == Poly(1.0, 0.0, 1.0)
        assert prob.sigma_bar == Poly(-dp.eps2, dp.beta2, dp.gamma2)
        assert prob.tau_bar == Poly(dp.beta, 2.0, 0.0)


class TestAuxQuantities:
    def test_demo_frozen_values(self):
        dp = dimensionless_from_eps2(dimensionless(DEMO, CONSTS), CONSTS.s, 1.0 + 0.0j, 0)
        aux = aux_quantities(dp)
        # v = i beta sqrt(gamma2 + 2.5 beta2) = i sqrt(2.535)
        assert aux.v == pytest.approx(1j * math.sqrt(2.535), rel=1e-9)
        assert dp.sigma_big(0) == pytest.approx(0.465)  # 0.5 - 0.04 + 0.005 + 0
        # u = sqrt(eps4 + eps2 beta2/2) + gamma2 at eps2 = 1
        assert aux.u == pytest.approx(cmath.sqrt(1.5) + 0.035, rel=1e-12)

    def test_exponent_relations(self):
        dp = dimensionless_from_eps2(dimensionless(DEMO, CONSTS), CONSTS.s, 0.3 - 0.1j, 1)
        aux = aux_quantities(dp)
        assert aux.mu == pytest.approx(2.0 - cmath.sqrt(aux.u + aux.v), rel=1e-12)
        assert aux.nu == pytest.approx(cmath.sqrt(aux.u - aux.v), rel=1e-12)
        assert aux.A == pytest.approx(aux.mu + 1j * aux.nu, rel=1e-12)
        assert aux.B == pytest.approx((aux.nu + dp.beta) / 2j, rel=1e-12)

    def test_u_regular_at_zero_eps2(self):
        dp = dimensionless_from_eps2(dimensionless(DEMO, CONSTS), CONSTS.s, 0.0, 0)
        aux = aux_quantities(dp)
        assert aux.u == pytest.approx(dp.gamma2)

    def test_n_enters_sigma_big_only(self):
        dp = dimensionless_from_eps2(dimensionless(DEMO, CONSTS), CONSTS.s, 1.0, 0)
        assert dp.sigma_big(2) - dp.sigma_big(0) == pytest.approx(6.0)

    def test_sigma_big_is_the_printed_constant(self):
        # printed: pref (a V0/2 - c V2 + b V1 + alpha^2 l(l+1)) + n(n+1),
        # here with s = 2 and alpha = 2, so pref = 1/(s alpha^2) = 1/8
        params = PotentialParams(a=1.0, b=0.01, c=2.0, d=2.0, V0=1.0, V1=0.5, V2=0.02,
                                 alpha=2.0)
        consts = PhysicalConstants(hbar=2.0, mass=1.0)
        dp = dimensionless_from_eps2(dimensionless(params, consts), consts.s, 0.0, 1)
        want = (0.5 - 0.04 + 0.005 + 4.0 * 2) / 8.0 + 2
        assert dp.sigma_big(1) == pytest.approx(want, rel=1e-14)


def coefficients(params, n, l, variant="quadratic"):
    """quantization_coefficients on the map of l, as energy_levels calls it."""
    l_map = dimensionless_from_eps2(dimensionless(params, CONSTS), CONSTS.s, 0.0, l)
    return quantization_coefficients(l_map, 1.0 / (CONSTS.s * params.alpha**2), n,
                                     variant=variant)


class TestQuantizationCoefficients:
    def test_demo_frozen_c1(self):
        _, c1, _ = coefficients(DEMO, 0, 0)
        assert c1 == pytest.approx(-(1.157018573 + 0.25j), rel=1e-9)

    def test_variants_differ_only_in_constant_term(self):
        c2q, c1q, c0q = coefficients(DEMO, 1, 0, variant="quadratic")
        c2s, c1s, c0s = coefficients(DEMO, 1, 0, variant="spectrum")
        assert c2q == c2s and c1q == c1s
        assert c0q != c0s

    def test_singular_guards(self):
        no_a = PotentialParams(a=0.0, b=0.01, c=2.0, d=0.0, V0=1.0, V1=0.5, V2=0.02, alpha=1.0)
        with pytest.raises(SingularCoefficientError, match="beta = 0"):
            coefficients(no_a, 0, 0)
        # c V2 - b V1 - alpha^2 l(l+1) = 0 at l = 0 when cV2 = bV1
        no_g = PotentialParams(a=1.0, b=1.0, c=1.0, d=0.0, V0=1.0, V1=0.04, V2=0.04, alpha=1.0)
        with pytest.raises(SingularCoefficientError, match="gamma = 0"):
            coefficients(no_g, 0, 0)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            coefficients(DEMO, 0, 0, variant="other")


class TestEnergyLevels:
    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(5150)
        checked = 0
        while checked < 100:
            params = uniform_params(rng)
            n = int(rng.integers(0, 3))
            l = int(rng.integers(0, 3))
            try:
                levels = energy_levels(params, CONSTS, n, l)
            except SingularCoefficientError:
                continue
            assert len(levels) == 2
            assert [lv.branch for lv in levels] == ["plus", "minus"]
            for lv in levels:
                assert lv.residual_quantization <= 1e-10
            checked += 1

    def test_energy_inversion_round_trip(self):
        # the printed map takes each root's E back to its eps^2, both variants
        # on seeded draws; the scale is that of the map's largest term
        for params, consts, lv in seeded_levels():
            got = printed_eps2(params, consts, lv.energy, lv.l)
            pref = 2.0 * consts.mass / (consts.hbar**2 * params.alpha**2)
            scale = pref * max(abs(lv.energy), abs(params.d), params.a * params.V0,
                               params.c * params.V2, params.alpha**2 * lv.l * (lv.l + 1))
            assert abs(got - lv.dp.eps2) <= 1e-13 * scale, (params, lv)

    def test_variant_changes_roots(self):
        quad = energy_levels(DEMO, CONSTS, 0, 0, variant="quadratic")
        spec = energy_levels(DEMO, CONSTS, 0, 0, variant="spectrum")
        assert quad[0].dp.eps2 != spec[0].dp.eps2

    def test_validation(self):
        with pytest.raises(DomainError):
            energy_levels(DEMO, CONSTS, -1, 0)
        with pytest.raises(DomainError):
            energy_levels(DEMO, CONSTS, 0, -1)
        dp = energy_levels(DEMO, CONSTS, 0, 0)[0].dp
        with pytest.raises(DomainError, match=r"^closed_form_diagnostics: n must be a "
                                              r"non-negative integer, got -1$"):
            closed_form_diagnostics(dp, -1)


class TestDiagnostics:
    DELTA_KEYS = {
        "k_reference", "k_best_pair_delta", "k_reference_disc", "k_mechanical_disc",
        "tau_reference", "lambda_n_printed", "lambda_n_printed_delta", "tau_delta",
        "lambda_reference_plus_variant", "lambda_reference_minus_variant",
        "lambda_reference_plus_residual", "lambda_reference_minus_residual"}

    def test_always_has_delta_keys(self):
        # n 0, l 0 has no branch with Re(tau') < 0 and n 0, l 1 has one; each
        # form holds exactly these keys, and a tau holds its c0 and c1
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        diag, engine = closed_form_diagnostics(lv.dp, 0)
        assert not engine["physical_branch"]
        assert set(diag) == self.DELTA_KEYS | {"selection_error"}
        assert len(diag["tau_reference"]) == 2
        lv = energy_levels(DEMO, CONSTS, 0, 1)[0]
        diag, engine = closed_form_diagnostics(lv.dp, 0)
        assert engine["physical_branch"]
        assert set(diag) == self.DELTA_KEYS | {
            "tau_mechanical", "lambda_mechanical", "branch", "multiplicity"}
        assert len(diag["tau_reference"]) == len(diag["tau_mechanical"]) == 2

    def test_mechanical_k_has_zero_discriminant(self):
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        diag = closed_form_diagnostics(lv.dp, 0)[0]
        assert max(diag["k_mechanical_disc"]) < 1e-10
        # the reference closed form does NOT satisfy the perfect-square
        # condition here; the deltas quantify the discrepancy
        assert min(diag["k_reference_disc"]) > 1e-3
        assert diag["k_best_pair_delta"] > 0.1

    @staticmethod
    def reference_lambda_n(dp, n):
        """lambda_n of the reference tau = nu + mu s, and sqrt(u + v)."""
        aux = aux_quantities(dp)
        tau_ref = Poly(aux.nu, aux.mu, 0.0)
        return lambda_n_of(nu_problem(dp), tau_ref, n), cmath.sqrt(aux.u + aux.v)

    def test_index_swap_identity(self):
        # swapping u back to n in the printed eigenvalue u sqrt(u+v) - u(u+1)
        # reproduces the reference-tau value; the printed value is far off
        lv = energy_levels(DEMO, CONSTS, 1, 0)[0]
        got, sqrt_upv = self.reference_lambda_n(lv.dp, 1)
        assert abs(got - (sqrt_upv - 2.0)) < 1e-12
        assert closed_form_diagnostics(lv.dp, 1)[0]["lambda_n_printed_delta"] > 1.0

    def test_lambda_zero_at_n_zero(self):
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        assert self.reference_lambda_n(lv.dp, 0)[0] == 0.0

    def test_quantization_residual_gauge(self):
        # a self-consistent textbook problem has residual ~0 at quantized eps
        from hyperwell.nu import NUProblem
        prob = NUProblem(Poly(1.0), Poly(7.0, 0.0, -1.0), Poly(0.0))  # oscillator n=3
        sol = pi_tau_select(enumerate_branches(prob))
        assert abs(complex(sol.lam) - lambda_n_of(prob, sol.tau, 3)) < 1e-12
        assert abs(complex(sol.lam) - lambda_n_of(prob, sol.tau, 2)) == pytest.approx(2.0)


class TestWavefunction:
    def test_normalized_on_window(self):
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        wf = radial_wavefunction(DEMO, lv)
        assert wf.norm_integral is not None
        # re-integrate |R|^2 independently on a fine grid
        r = np.geomspace(wf.norm_window[0], wf.norm_window[1], 200001)
        dens = np.abs(wf(r)) ** 2
        total = np.trapezoid(dens, r)
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_renormalize_noop(self):
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        wf = radial_wavefunction(DEMO, lv)
        n1 = wf.norm_constant
        wf2 = radial_wavefunction(DEMO, lv)
        assert wf2.norm_constant == pytest.approx(n1, rel=1e-12)

    def test_printed_instance_is_the_printed_form(self):
        # R = (1 + i coth)^((mu+B)/2) (1 - i coth)^((mu-B)/2)
        #     P_n^(2+A, 2-A)(i coth) exp(-beta r/2), written out
        r = np.geomspace(1e-3, 30.0, 41)
        for n in range(3):
            for l in range(2):
                lv = energy_levels(DEMO, CONSTS, n, l)[0]
                aux, z = aux_quantities(lv.dp), 1j / np.tanh(DEMO.alpha * r)
                want = ((1.0 + z) ** ((aux.mu + aux.B) / 2.0) * (1.0 - z) ** ((aux.mu - aux.B) / 2.0)
                        * special.jacobi(n, 2.0 + aux.A, 2.0 - aux.A, z)
                        * np.exp(-lv.dp.beta * r / 2.0))
                got = raw_wavefunction(DEMO, lv)(r)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, l)

    def test_fidelity_is_a_normalized_overlap(self):
        # 1 for a state against itself, whatever N, and symmetric
        m = dimensionless(FAULT, CONSTS)
        exact = eckart_state(m, 1, 0)
        printed = raw_wavefunction(FAULT, choose_level(energy_levels(FAULT, CONSTS, 1, 0)))
        assert fidelity(exact, exact) == pytest.approx(1.0, rel=1e-8)
        assert fidelity(exact, replace(exact, norm_constant=7.0)) == pytest.approx(1.0, rel=1e-8)
        value = fidelity(exact, printed)
        assert 0.0 < value < 1.0
        assert fidelity(printed, exact.normalized()) == pytest.approx(value, rel=1e-8)
        assert fidelity(exact, printed.normalized()) == pytest.approx(value, rel=1e-8)

    def test_degree_two_uses_polynomial(self):
        lv = energy_levels(DEMO, CONSTS, 2, 0)[0]
        wf = raw_wavefunction(DEMO, lv)
        assert cmath.isfinite(wf(0.8))

    def test_vectorized_matches_scalar(self):
        lv = energy_levels(DEMO, CONSTS, 1, 0)[0]
        wf = raw_wavefunction(DEMO, lv)
        r = np.array([0.3, 1.0, 4.0])
        v = wf(r)
        for i, ri in enumerate(r):
            assert v[i] == pytest.approx(wf(float(ri)), rel=1e-12)

    def test_overflowing_envelope_not_normalizable(self):
        # a huge |eps2| drives the envelope exponents to ~ 1e6, whose complex
        # powers overflow inside the window; the integrand turns non-finite
        dp = dimensionless_from_eps2(dimensionless(DEMO, CONSTS), CONSTS.s, 1e12 + 0j, 0)
        lv = EnergyLevel(n=0, l=0, branch="plus", dp=dp, energy=0j, residual_quantization=0.0)
        with pytest.raises(NonNormalizableError):
            radial_wavefunction(DEMO, lv)

    def test_overflowing_square_not_normalizable(self):
        # at n = 40 |R| passes 1.3e154 near the origin, so |R|^2 overflows;
        # the quadrature names the end, and no numpy warning escapes first
        # (pytest turns warnings into errors)
        cfg = parse_config((CONFIGS / "general.cfg").read_text())
        lv = energy_levels(cfg.params, cfg.consts, 40, 0)[0]
        with pytest.raises(NonNormalizableError, match="origin end"):
            radial_wavefunction(cfg.params, lv)


def reference_log_trapezoid(f, lo, hi, rtol, max_doublings=14):
    """Normalization integral by the trapezoid in t = log r, resampled whole.

    The loop the nested Romberg quadrature replaced: every doubling
    evaluates all points again and stops on two successive trapezoid sums
    agreeing to rtol, an O(h^2) estimate.
    """
    lt, ht = math.log(lo), math.log(hi)
    m = 513
    t = np.linspace(lt, ht, m)
    r = np.exp(t)
    last = np.trapezoid(f(r) * r, t)
    for _ in range(max_doublings):
        m = 2 * m - 1
        t = np.linspace(lt, ht, m)
        r = np.exp(t)
        vals = f(r) * r
        assert np.all(np.isfinite(vals))
        cur = np.trapezoid(vals, t)
        if abs(cur - last) <= rtol * max(abs(cur), 1e-300):
            return cur
        last = cur
    raise ConvergenceError("reference quadrature did not converge")


def count_samples(monkeypatch):
    """Wrap the normalization integrand; one sample count per normalization."""
    counts = []
    inner = analytic._adaptive_log_trapezoid

    def counted(f, lo, hi, rtol, **kwargs):
        counts.append(0)

        def g(r):
            counts[-1] += np.size(r)
            return f(r)

        return inner(g, lo, hi, rtol, **kwargs)

    monkeypatch.setattr(analytic, "_adaptive_log_trapezoid", counted)
    return counts


def bundled_states(name, n_max=2, l_max=1):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    return cfg.params, cfg.consts, [(n, l) for n in range(n_max + 1) for l in range(l_max + 1)]


class TestNormalizationQuadrature:
    def test_sample_budget_on_general(self, monkeypatch):
        # the whole-grid trapezoid took up to 1,048,075 samples here
        counts = count_samples(monkeypatch)
        params, consts, states = bundled_states("general")
        for n, l in states:
            for lv in energy_levels(params, consts, n, l):
                radial_wavefunction(params, lv)
        assert len(counts) == 12
        assert max(counts) <= 16385

    # poschl_teller and scarf have a*V0 = 0, so every state there is singular
    @pytest.mark.parametrize("case", ["general", "rosen_morse", "seeded"])
    def test_matches_reference_trapezoid(self, case):
        if case == "seeded":
            rng = random.Random(7)
            cases = [(seeded_params(rng), CONSTS, [(n, l) for n in range(2) for l in range(2)])
                     for _ in range(4)]
        else:
            cases = [bundled_states(case)]
        compared = 0
        for params, consts, states in cases:
            for n, l in states:
                for lv in energy_levels(params, consts, n, l):
                    wf = radial_wavefunction(params, lv)
                    raw = raw_wavefunction(params, lv)
                    ref = reference_log_trapezoid(lambda r: np.abs(raw(r)) ** 2,
                                                  *raw.norm_window, 1e-8)
                    assert wf.norm_integral == pytest.approx(ref, rel=1e-8)
                    compared += 1
        assert compared == {"general": 12, "rosen_morse": 12, "seeded": 32}[case]

    @pytest.mark.parametrize("end", ["origin", "infinity"])
    def test_nonfinite_midpoint_names_its_end(self, end):
        # finite on the starting grid; the first doubling's midpoints carry
        # a NaN at the lowest (origin) or highest (infinity) new sample
        calls = []

        def f(r):
            calls.append(r.size)
            out = 1.0 / r
            if len(calls) == 2:
                out[0 if end == "origin" else -1] = np.nan
            return out

        with pytest.raises(NonNormalizableError) as info:
            analytic._adaptive_log_trapezoid(f, 1e-6, 40.0, 1e-8)
        assert info.value.end == end
        assert calls == [513, 512]

    def test_never_converging_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        calls = []

        def noise(r):
            calls.append(r.size)
            return rng.random(r.size) / r

        monkeypatch.setattr(analytic, "_NORM_DOUBLINGS", 3)
        with pytest.raises(ConvergenceError, match="3 doublings"):
            analytic._adaptive_log_trapezoid(noise, 1e-6, 40.0, 1e-8)
        assert calls == [513, 512, 1024, 2048]


class TestOdeResidual:
    def test_manufactured_solution_reaches_discretization_floor(self):
        # with a = b = c = 0, d = 0, l = 0 the checked operator is
        # F'' + 2m E/hbar^2 F, solved exactly by sin(sqrt(2mE)/hbar r)
        free = PotentialParams(a=0.0, b=0.0, c=0.0, d=0.0, V0=0.0, V1=0.0, V2=0.0, alpha=1.0)
        E = 4.0  # W = 2mE/hbar^2 = 4; F = sin(2r)

        class Exact:
            kappa = 0.0  # beta = 2 kappa = 0, so F = R

            def __call__(self, r):
                return np.sin(2.0 * np.asarray(r, dtype=float))

        res = ode_residual(Exact(), free, CONSTS, E, 0, [0.5, 1.0, 2.0])
        assert res < 1e-5

    def test_order_one_residual_at_quantization_roots(self):
        # the closed-form pair (E, R) does not satisfy the radial equation:
        # the residual is O(1), reported rather than asserted away
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        wf = raw_wavefunction(DEMO, lv)
        res = ode_residual(wf, DEMO, CONSTS, lv.energy, 0, [0.5, 1.0, 2.0, 4.0])
        assert 0.1 < res < 10.0

    def test_matches_pointwise_reference(self):
        # one scalar wavefunction call per sample as reference: array and
        # scalar evaluation differ by an ulp, which the h = 1e-4 second
        # difference scales by 1/h^2
        def reference(wf, params, energy, l, r_samples):
            pref = 2.0 * CONSTS.mass / CONSTS.hbar**2
            dp = dimensionless_from_eps2(dimensionless(params, CONSTS), CONSTS.s, 0.0, l)
            h = 1e-4
            worst, scale = 0.0, 1.0
            for r in r_samples:
                fm, f0, fp = (complex(wf(x)) * cmath.exp(dp.beta * x / 2.0)
                              for x in (r - h, r, r + h))
                d2 = (fp - 2.0 * f0 + fm) / (h * h)
                d1 = (fp - fm) / (2.0 * h)
                coth = 1.0 / math.tanh(params.alpha * r)
                csch2 = 1.0 / math.sinh(params.alpha * r) ** 2
                w = pref * (energy + params.a * params.V0 * coth
                            - params.b * params.V1 * coth * coth
                            + params.c * params.V2 * csch2
                            - params.alpha**2 * l * (l + 1) * csch2
                            - params.d + dp.beta2 / 4.0)
                scale = max(scale, abs(d2), abs(dp.beta * d1), abs(w * f0))
                worst = max(worst, abs(d2 - dp.beta * d1 + w * f0))
            return worst / scale

        samples = [0.5, 1.0, 2.0, 4.0]
        for n in range(3):
            for l in range(2):
                lv = energy_levels(DEMO, CONSTS, n, l)[0]
                wf = raw_wavefunction(DEMO, lv)
                got = ode_residual(wf, DEMO, CONSTS, lv.energy, l, samples)
                assert got == pytest.approx(reference(wf, DEMO, lv.energy, l, samples),
                                            rel=1e-8), (n, l)

    def test_sample_too_close_to_origin(self):
        from hyperwell.errors import SamplingError
        lv = energy_levels(DEMO, CONSTS, 0, 0)[0]
        wf = raw_wavefunction(DEMO, lv)
        with pytest.raises(SamplingError):
            ode_residual(wf, DEMO, CONSTS, lv.energy, 0, [5e-5])
