"""Closed-form spectrum and wavefunctions for the hyperbolic family.

The radial equation is mapped to the engine's standard form with
s = coth(alpha r) after substituting R(r) = exp(-beta r / 2) F(r) and
replacing 1/r^2 by alpha^2 cosech^2(alpha r). That yields the triple

    sigma     = 1 + s^2
    tau_bar   = beta + 2 s
    sigma_bar = -eps^2 + beta^2 s + gamma^2 s^2

whose dimensionless coefficients are built here, along with the
quantization quadratic in eps^2 whose roots give the (complex) energy
levels, and the Jacobi-polynomial wavefunctions.

The commonly quoted closed forms for this family are internally
inconsistent in places (their k candidates do not zero the radicand
discriminant, and one printed eigenvalue formula swaps the level index
for an auxiliary quantity). The engine computes everything mechanically;
``closed_form_diagnostics`` quantifies the differences against those
reference forms instead of reconciling them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import special
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationOverflowError,
    NonNormalizableError,
    NoPhysicalBranchError,
    SamplingError,
    SingularCoefficientError,
    require_index,
)
from .nu import NUProblem, Poly, enumerate_branches, lambda_n_of, pi_tau_select, radicand_coeffs
from .potential import dimensionless
from .special import hyperbolic_pair, principal_sqrt, solve_quadratic

_SQRT2 = math.sqrt(2.0)

# normalization quadrature window, in units of 1/alpha, its relative tolerance
# and the most midpoint doublings of its 513-point start
_NORM_WINDOW = (1e-6, 40.0)
_NORM_RTOL = 1e-8
_NORM_DOUBLINGS = 14

# central-difference step of ode_residual
_ODE_H = 1e-4


@dataclass(frozen=True)
class DimensionlessParams:
    """eps^2, beta^2, gamma^2 and the ansatz rate beta = principal sqrt of beta^2."""

    eps2: complex
    beta2: complex
    gamma2: complex
    beta: complex

    def sigma_big(self, n) -> complex:
        """The spectrum constant Sigma; n enters only through n(n+1)."""
        return self.beta2 / 2.0 - self.gamma2 + float(n * (n + 1))


@dataclass(frozen=True)
class AuxQuantities:
    u: complex
    v: complex
    mu: complex
    nu: complex
    A: complex
    B: complex


@dataclass(frozen=True)
class EnergyLevel:
    n: int
    l: int
    branch: str  # 'plus' or 'minus' root of the quantization quadratic
    dp: DimensionlessParams  # the map at this root: dp.eps2 is the root
    energy: complex
    residual_quantization: float


def dimensionless_from_eps2(m, s, eps2, l) -> DimensionlessParams:
    """Coefficients for a known eps^2 (e.g. a quantization root), no E needed,
    from beta^2 and B of the map m; gamma^2's printed barrier term
    alpha^2 l(l+1)/(s alpha^2) takes s = hbar^2/(2m), where the surrogate
    problem has l(l+1)."""
    A, B = m.coefficients()
    beta2 = complex(A)
    gamma2 = complex(-B - l * (l + 1) / s)
    return DimensionlessParams(eps2=complex(eps2), beta2=beta2, gamma2=gamma2,
                               beta=principal_sqrt(beta2))


def nu_problem(dp: DimensionlessParams) -> NUProblem:
    """The family's reduction triple for a given set of coefficients."""
    return NUProblem(
        sigma=Poly(1.0, 0.0, 1.0),
        sigma_bar=Poly(-dp.eps2, dp.beta2, dp.gamma2),
        tau_bar=Poly(dp.beta, 2.0, 0.0),
    )


def _v_of(dp: DimensionlessParams) -> complex:
    return 1j * dp.beta * principal_sqrt(dp.gamma2 + 2.5 * dp.beta2)


def aux_quantities(dp) -> AuxQuantities:
    """u, v and the wavefunction exponents.

    u = sqrt(eps^4 + eps^2 beta^2/2) + gamma^2 (regular at eps^2 = 0),
    mu = 2 - sqrt(u+v), nu = sqrt(u-v), A = mu + i nu, B = (nu + beta)/(2i).
    One that is not finite raises SingularCoefficientError.
    """
    try:
        u = principal_sqrt(dp.eps2 * dp.eps2 + dp.eps2 * dp.beta2 / 2.0) + dp.gamma2
        v = _v_of(dp)
        mu = 2.0 - principal_sqrt(u + v)
        nu = principal_sqrt(u - v)
    except DomainError as exc:  # an exponent that is not finite
        raise SingularCoefficientError(str(exc)) from None
    return AuxQuantities(u=u, v=v, mu=mu, nu=nu, A=mu + 1j * nu, B=(nu + dp.beta) / 2j)


def quantization_coefficients(dp, pref, n, variant="quadratic"):
    """The three coefficients of the quadratic in z = eps^2.

    dp is the map of the level's l (its eps^2 is not read) and pref the
    energy factor 1/(s alpha^2). variant='quadratic' implements the
    constant term exactly as the reference closed form prints it, with
    the combined sqrt(v + iv); variant='spectrum' implements the alternate
    printing that splits the term into sqrt(v)/2 and +i v_aux, so a
    reader can swap the two.
    """
    if variant not in ("quadratic", "spectrum"):
        raise DomainError(f"quantization_coefficients: unknown variant {variant!r}")
    beta2, gamma2, beta = dp.beta2, dp.gamma2, dp.beta
    gamma = principal_sqrt(gamma2)
    if beta == 0:
        raise SingularCoefficientError(
            "quantization_coefficients: beta = 0 (a*V0 = 0) makes the "
            "1/(8 sqrt(2) beta gamma) denominator singular")
    if gamma == 0:
        raise SingularCoefficientError(
            "quantization_coefficients: gamma = 0 makes the "
            "1/(8 sqrt(2) beta gamma) denominator singular")
    v = _v_of(dp)
    if v == 0:
        raise SingularCoefficientError(
            "quantization_coefficients: v = 0 makes the 1/(2v) term singular")
    sigma_big = dp.sigma_big(n)
    r8 = 8.0 * _SQRT2
    c2 = (n + 1) / (r8 * beta * gamma) + 1j * (gamma / (r8 * beta) - 1.0 / (2.0 * v))
    c1 = -(1.0 + (1j * beta2 / 4.0) * (1.0 + 1.0 / v))
    tail = (beta * gamma / (2.0 * _SQRT2)) * ((n + 1) + 1j * gamma2) - 1j * gamma2 * gamma2 / 2.0
    if variant == "quadratic":
        c0 = -(sigma_big - ((n + 1) / 2.0) * principal_sqrt(v + 1j * v) + tail)
    else:
        # the auxiliary constant v_aux keeps its printed leading i and pref;
        # a negative radicand is absorbed by the complex square root
        v_aux = 1j * pref * principal_sqrt((beta2 + gamma2) / pref)
        c0 = -(sigma_big - ((n + 1) / 2.0) * principal_sqrt(v) + 1j * v_aux + tail)
    return c2, c1, c0


def energy_levels(params, consts, n, l, variant="quadratic"):
    """Both roots of the quantization quadratic as EnergyLevel records.

    Returns (plus, minus) ordered by the sign of the discriminant root, or
    raises SingularCoefficientError saying why the closed forms do not
    evaluate, naming the coefficient of the map or of the quadratic that is
    not finite, also where a root, its energy or its residual is not
    finite. The map of l is built once; each level carries it with eps^2
    set to its root. E solves the printed definition
    eps^2 = -(E + beta^2/4 + c V2 - alpha^2 l(l+1) - d)/(s alpha^2), with
    c V2 - alpha^2 l(l+1) = s alpha^2 gamma^2 + b V1: s alpha^2 maps eps^2
    and gamma^2 back to the config's unit, while beta^2/4 enters E as a
    pure number. The energies are complex in general;
    residual_quantization records the scaled back-substitution residual.
    """
    require_index(n, "energy_levels: n")
    require_index(l, "energy_levels: l")
    m = dimensionless(params, consts)
    try:
        l_map = dimensionless_from_eps2(m, consts.s, 0.0, l)
        coefficients = quantization_coefficients(l_map, 1.0 / m.scale, n, variant=variant)
    except DomainError as exc:  # a closed-form quantity that is not finite
        raise SingularCoefficientError(str(exc)) from None
    for name, c in zip(("c2", "c1", "c0"), coefficients):
        if not cmath.isfinite(c):
            raise SingularCoefficientError(
                f"energy_levels: the quantization coefficient {name} = {c} is not finite")
    c2, c1, c0 = coefficients
    roots = solve_quadratic(c2, c1, c0)
    if len(roots) != 2:
        raise SingularCoefficientError("energy_levels: c2 = 0 leaves no quadratic in eps^2")
    shift = l_map.beta2.real / 4.0 + l_map.gamma2.real * m.scale + params.b * params.V1
    out = []
    for z, label in zip(roots, ("plus", "minus")):
        scale = max(abs(c2 * z * z), abs(c1 * z), abs(c0), 1.0)
        energy = -z * m.scale - shift + params.d
        residual = abs(c2 * z * z + c1 * z + c0) / scale
        if not all(map(cmath.isfinite, (z, energy, residual))):
            raise SingularCoefficientError(
                f"energy_levels: the {label} root does not evaluate: eps^2 = {z}, "
                f"E = {energy}, residual_quantization = {residual}")
        out.append(EnergyLevel(
            n=int(n), l=int(l), branch=label, dp=replace(l_map, eps2=complex(z)),
            energy=energy, residual_quantization=residual))
    return tuple(out)


def closed_form_diagnostics(dp: DimensionlessParams, n):
    """Deltas between the mechanical engine and the reference closed forms.

    Covers the k candidates, the selected tau, both printed lambda sign
    variants, and the printed discrete eigenvalue whose index is swapped
    for the auxiliary u in the reference text. One enumerate_branches pass
    feeds everything: the k candidates are ``branches[::2]`` and
    pi_tau_select picks from the same list. A tau is given as [c0, c1]:
    tau_bar has degree <= 1 and pi is linear, so its c2 is 0.

    Returns (diagnostics, engine check). The engine check holds the
    mismatch |lambda - lambda_n| on the physical branch, or, when no
    branch has Re(tau') < 0, the smallest mismatch over every branch,
    with ``physical_branch`` saying which. The mismatch is ~0 for a
    self-consistent problem at a quantized parameter; at roots of the
    printed quadratic it measures the closed forms' inconsistency.
    """
    require_index(n, "closed_form_diagnostics: n")
    problem = nu_problem(dp)
    branches = enumerate_branches(problem)
    aux = aux_quantities(dp)
    u, v = aux.u, aux.v
    base = dp.gamma2 - dp.eps2 - dp.beta2 / 4.0
    rad = principal_sqrt(u * u - v * v)
    k_ref = (base + rad, base - rad)
    ks = [b.k for b in branches[::2]]

    def disc_at(k):
        p = radicand_coeffs(problem, k)
        return abs(p.c1 * p.c1 - 4.0 * p.c2 * p.c0)

    # best pairing of the two mechanical and reference k (sigma = 1 + s^2)
    k_delta = min(max(abs(ks[0] - k_ref[0]), abs(ks[1] - k_ref[1])),
                  max(abs(ks[0] - k_ref[1]), abs(ks[1] - k_ref[0])))

    sqrt_upv = principal_sqrt(u + v)
    tau_ref = Poly(aux.nu, aux.mu, 0.0)
    lam_ref_plus = base + rad - sqrt_upv / 2.0
    lam_ref_minus = base - rad - sqrt_upv / 2.0
    lambda_n_ref_tau = lambda_n_of(problem, tau_ref, n)
    lambda_n_printed = u * sqrt_upv - u * (u + 1.0)

    diag = {
        "k_reference": [complex(k) for k in k_ref],
        "k_best_pair_delta": float(k_delta),
        "k_reference_disc": [float(disc_at(k)) for k in k_ref],
        "k_mechanical_disc": [float(disc_at(k)) for k in ks],
        "tau_reference": [complex(tau_ref.c0), complex(tau_ref.c1)],
        "lambda_n_printed": complex(lambda_n_printed),
        "lambda_n_printed_delta": float(abs(lambda_n_printed - lambda_n_ref_tau)),
    }

    # deltas hold for every enumerated branch, whether or not one qualifies
    nearest = min(branches, key=lambda c: abs(c.tau.c0 - tau_ref.c0)
                  + abs(c.tau.c1 - tau_ref.c1))
    diag["tau_delta"] = [float(abs(nearest.tau.c0 - tau_ref.c0)),
                         float(abs(nearest.tau.c1 - tau_ref.c1))]
    diag["lambda_reference_plus_variant"] = complex(lam_ref_plus)
    diag["lambda_reference_minus_variant"] = complex(lam_ref_minus)
    diag["lambda_reference_plus_residual"] = float(
        min(abs(c.lam - lam_ref_plus) for c in branches))
    diag["lambda_reference_minus_residual"] = float(
        min(abs(c.lam - lam_ref_minus) for c in branches))
    try:
        sol = pi_tau_select(branches)
    except NoPhysicalBranchError as exc:
        diag["selection_error"] = str(exc)
        mismatch = min(abs(complex(b.lam) - lambda_n_of(problem, b.tau, n)) for b in branches)
        return diag, {"engine_lambda_mismatch": mismatch, "physical_branch": False}
    diag.update({
        "tau_mechanical": [complex(sol.tau.c0), complex(sol.tau.c1)],
        "lambda_mechanical": complex(sol.lam),
        "branch": list(sol.branch),
        "multiplicity": sol.multiplicity,
    })
    return diag, {"engine_lambda_mismatch": abs(complex(sol.lam)
                                                - lambda_n_of(problem, sol.tau, n)),
                  "physical_branch": True}


class RadialWavefunction:
    """Callable R(r) built from the envelope, the Jacobi factor and the ansatz.

    R(r) = N (1 + i coth)^((mu+B)/2) (1 - i coth)^((mu-B)/2)
             P_n^(2+A, 2-A)(i coth(alpha r)) exp(-beta r / 2)

    dp holds the level's dimensionless coefficients, the map its
    EnergyLevel carries. The full solution of the radial problem is
    psi(r) = R(r)/r. The normalization constant N makes the integral of
    |R|^2 over the fixed window [1e-6/alpha, 40/alpha] equal to 1.
    """

    def __init__(self, params, n, dp: DimensionlessParams):
        self.params = params
        self.n = int(n)
        self.dp = dp
        self.aux = aux_quantities(dp)
        self.norm_constant = 1.0
        self.norm_window = (_NORM_WINDOW[0] / params.alpha, _NORM_WINDOW[1] / params.alpha)
        self.norm_integral = None

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        bad = ~(np.isfinite(arr) & (arr > 0))
        if np.any(bad):
            r_bad = float(arr[bad][0])
            raise SamplingError(f"wavefunction sample r = {r_bad} outside (0, inf)", r=r_bad)
        # coth * 1j keeps numpy's complex arithmetic on 0-d input too, where
        # coth is a numpy scalar and 1j * coth would be a Python complex
        z = hyperbolic_pair(self.params.alpha * arr)[0] * 1j
        aux = self.aux
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = ((1.0 + z) ** ((aux.mu + aux.B) / 2.0)
                        * (1.0 - z) ** ((aux.mu - aux.B) / 2.0))
            poly = special.jacobi(self.n, 2.0 + aux.A, 2.0 - aux.A, z)
            return self.norm_constant * envelope * poly * np.exp(-self.dp.beta * arr / 2.0)


def _log_samples(f, t, lt, ht):
    """f(r) r at r = exp(t), the integrand in the dt measure; non-finite raises."""
    r = np.exp(t)
    with np.errstate(over="ignore"):  # an overflow is named below
        vals = f(r) * r
    if not np.all(np.isfinite(vals)):
        bad = t[~np.isfinite(vals)][0]
        end = "origin" if bad < 0.5 * (lt + ht) else "infinity"
        raise NonNormalizableError(
            f"normalization integrand non-finite toward the {end} end", end=end)
    return vals


def _adaptive_log_trapezoid(f, lo, hi, rtol):
    """Romberg integration in t = log r on nested samples, to relative rtol.

    Starts from a 513-point trapezoid; each doubling samples only the new
    midpoints, T(h/2) = T(h)/2 + (h/2) sum f(midpoints), and extends the
    Romberg row. Stops when two successive diagonal values agree to rtol.
    """
    lt, ht = math.log(lo), math.log(hi)
    intervals = 512
    h = (ht - lt) / intervals
    vals = _log_samples(f, np.linspace(lt, ht, intervals + 1), lt, ht)
    row = [h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))]
    for _ in range(_NORM_DOUBLINGS):
        h /= 2.0
        mid = _log_samples(f, np.linspace(lt + h, ht - h, intervals), lt, ht)
        intervals *= 2
        new = [0.5 * row[0] + h * mid.sum()]
        for j, prev in enumerate(row, start=1):
            new.append(new[-1] + (new[-1] - prev) / (4.0**j - 1.0))
        if abs(new[-1] - row[-1]) <= rtol * max(abs(new[-1]), 1e-300):
            return new[-1]
        row = new
    raise ConvergenceError(
        f"normalization quadrature did not reach rtol = {rtol} after "
        f"{_NORM_DOUBLINGS} doublings")


def radial_wavefunction(params, level: EnergyLevel) -> RadialWavefunction:
    """Build R(r) for an energy level, normalized on the standard window.

    Normalization integrates |R|^2 by Romberg integration on nested
    log-r samples over [1e-6/alpha, 40/alpha] to a relative tolerance of
    1e-8.
    Renormalizing an already normalized wavefunction is a no-op up to
    rounding.
    """
    wf = RadialWavefunction(params, level.n, level.dp)
    integral = _adaptive_log_trapezoid(
        lambda r: np.abs(wf(r)) ** 2, wf.norm_window[0], wf.norm_window[1], _NORM_RTOL)
    if not (integral > 0.0) or not math.isfinite(integral):
        raise NonNormalizableError(
            f"normalization integral is {integral}; cannot scale", end="origin")
    wf.norm_constant = 1.0 / math.sqrt(integral)
    wf.norm_integral = float(integral)
    return wf


def ode_residual(wf: RadialWavefunction, params, consts, energy, l, r_samples) -> float:
    """Residual of the pre-substitution radial ODE at F = R exp(+beta r/2).

    The operator checked is F'' - beta F' + W(r) F with

        W = (2m/hbar^2) (E + a V0 coth - b V1 coth^2 + c V2 cosech^2
                         - alpha^2 l(l+1) cosech^2 - d + beta^2/4)

    evaluated faithfully to the closed-form derivation (beta^2/4 is the
    dimensionless beta squared over four); beta and beta^2 are those of
    wf.dp, the map the wavefunction was built on. Returns the max scaled
    residual max_i |F'' - beta F' + W F| / scale over the samples, by
    central differences with step h = 1e-4, which amplify one ulp of beta^2
    or gamma^2 by about 1/h^2, so digits past about the ninth are rounding
    noise. Raises EvaluationOverflowError where a sample of F is non-finite.
    """
    pref = 1.0 / consts.s
    dp = wf.dp
    beta, h = dp.beta, _ODE_H
    r = np.asarray(r_samples, dtype=float)
    close = r - h <= 0
    if np.any(close):
        r_bad = float(r[close][0])
        raise SamplingError(f"ode_residual: r = {r_bad} too close to 0 for step h = {h}", r=r_bad)
    # rows r - h, r, r + h: every sample of F in one wavefunction call
    rs = np.stack((r - h, r, r + h))
    with np.errstate(over="ignore", invalid="ignore"):
        fs = wf(rs) * np.exp(beta * rs / 2.0)
    bad = ~np.isfinite(fs.T)
    if np.any(bad):
        raise EvaluationOverflowError(
            f"ode_residual: F = R exp(beta r/2) is non-finite at r = {float(rs.T[bad][0])}")
    fm, f0, fp = fs
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    coth, csch2 = hyperbolic_pair(params.alpha * r)
    w = pref * (complex(energy) + params.a * params.V0 * coth
                - params.b * params.V1 * coth * coth
                + params.c * params.V2 * csch2
                - params.alpha * params.alpha * l * (l + 1) * csch2
                - params.d + dp.beta2 / 4.0)
    resid = np.abs(d2 - beta * d1 + w * f0)
    terms = np.abs(np.stack((d2, beta * d1, w * f0)))
    scale = max(1.0, float(np.max(terms, initial=0.0)))
    return float(np.max(resid, initial=0.0)) / scale
