"""Exact levels of the surrogate (Eckart) problem and their bound-state gate."""

import dataclasses

import pytest

from hyperwell.config import parse_config
from hyperwell.errors import DomainError
from hyperwell.exact import surrogate_level
from hyperwell.oracle import fd_spectrum, numerov_spectrum
from hyperwell.potential import PhysicalConstants, dimensionless, effective_potential
from params import CONFIGS, FAULT, family_params, mapped

CONSTS = PhysicalConstants(hbar=1.0, mass=0.5)  # s = hbar^2/(2m) = 1

COTH20 = family_params(a=1.0, V0=20.0)  # A = 20, B = C = 0, asymptote -20


def test_pure_coth_levels():
    # kappa_0 = 1: E_n = -(n+1)^2 - 100/(n+1)^2, bound while 20 > 2(n+1)^2
    for n, energy, bound in ((0, -101.0, True), (1, -29.0, True),
                             (2, -9.0 - 100.0 / 9.0, True), (3, -22.25, False)):
        lv = surrogate_level(dimensionless(COTH20, CONSTS), n, 0)
        assert (lv.n, lv.l) == (n, 0)
        assert lv.energy == pytest.approx(energy, rel=1e-15)
        assert lv.bound is bound


def test_unbound_value_below_asymptote_is_not_bound():
    # l = 2 gives kappa = 3; n = 1 evaluates to -22.25, below the asymptote
    # -20, yet 20 > 2 (1 + 3)^2 fails, so it is no level
    lv = surrogate_level(dimensionless(COTH20, CONSTS), 1, 2)
    assert lv.energy == pytest.approx(-22.25, rel=1e-15)
    assert lv.energy < -20.0
    assert lv.bound is False
    assert surrogate_level(dimensionless(COTH20, CONSTS), 0, 2).bound is True


def test_surrogate_barrier_shifts_b():
    # at l the surrogate barrier adds s l(l+1) alpha^2 to B = b V1 - c V2
    params = family_params(a=1.5, V0=20.0, b=0.5, V1=1.0, c=-1.0, V2=0.5, d=0.3, alpha=1.7)
    for l in range(3):
        shift = l * (l + 1) * params.alpha**2
        shifted = family_params(a=1.5, V0=20.0, b=0.5, V1=1.0, c=-1.0 - shift / 0.5, V2=0.5,
                                d=0.3, alpha=1.7)
        for n in range(3):
            at_l = surrogate_level(dimensionless(params, CONSTS), n, l)
            at_zero = surrogate_level(dimensionless(shifted, CONSTS), n, 0)
            assert at_l.energy == pytest.approx(at_zero.energy, rel=1e-12)
            assert at_l.bound is at_zero.bound


def test_units_enter_through_s():
    # s = hbar^2/(2m) = 2 doubles every energy of a potential scaled by 2
    consts = PhysicalConstants(hbar=2.0, mass=1.0)
    scaled = family_params(a=1.0, V0=40.0)
    for n in range(3):
        assert surrogate_level(dimensionless(scaled, consts), n, 1).energy == pytest.approx(
            2.0 * surrogate_level(dimensionless(COTH20, CONSTS), n, 1).energy, rel=1e-14)


def scaled(params, f, alpha=None):
    """params with every depth, d included, times f, and alpha if given."""
    return dataclasses.replace(params, V0=f * params.V0, V1=f * params.V1, V2=f * params.V2,
                               d=f * params.d, alpha=params.alpha if alpha is None else alpha)


def assert_levels_scale(params, consts, factor):
    # every level of (params, consts) is `factor` times FAULT's at s = 1
    for l in range(3):
        for n in range(3):
            ref = surrogate_level(dimensionless(FAULT, CONSTS), n, l)
            lv = surrogate_level(dimensionless(params, consts), n, l)
            assert lv.bound is ref.bound
            assert abs(lv.energy / factor - ref.energy) <= 1e-14 * abs(ref.energy)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1e3, 1e6])
def test_energy_unit_scaling(lam):
    # (s, V) -> (lam s, lam V) multiplies every level by lam
    consts = PhysicalConstants(hbar=1.0, mass=0.5 / lam)
    assert consts.s == pytest.approx(lam, rel=1e-15)
    assert_levels_scale(scaled(FAULT, lam), consts, lam)


@pytest.mark.parametrize("mu", [0.05, 0.5, 2.0, 20.0])
def test_length_scaling(mu):
    # r -> r / mu: alpha -> mu alpha and V -> mu^2 V multiply every level by mu^2
    assert_levels_scale(scaled(FAULT, mu * mu, alpha=mu * FAULT.alpha), CONSTS, mu * mu)


def test_fall_to_centre_and_bad_indices_rejected():
    with pytest.raises(DomainError, match="fall to centre"):
        surrogate_level(dimensionless(family_params(a=1.0, V0=20.0, c=1.0, V2=1.0), CONSTS), 0, 0)
    with pytest.raises(DomainError):
        surrogate_level(dimensionless(COTH20, CONSTS), -1, 0)
    with pytest.raises(DomainError):
        surrogate_level(dimensionless(COTH20, CONSTS), 0, 1.5)


# README's Bundled configs table for the barrier wells: the surrogate-bound
# (n, l) at l 0..2 with E to two decimals, and the FD levels below the
# asymptote -12 with the exact 1/r^2 barrier at 8000 points, per l
@pytest.mark.parametrize("name, surrogate_bound, bound_with_exact_barrier", [
    ("barrier_well", {(0, 0): -20.11, (1, 0): -12.54, (0, 1): -14.35, (0, 2): -12.03},
     ([-20.11, -12.54], [-14.06], [])),
    ("barrier_well_alpha1", {(0, 0): -16.37, (0, 1): -12.09}, ([-16.37], [], [])),
])
def test_barrier_well_bound_states(name, surrogate_bound, bound_with_exact_barrier):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    params, consts = cfg.params, cfg.consts
    assert params.asymptote == -12.0
    # level n binds only while A > 2 s alpha^2 (n + kappa_l)^2, so no n past
    # the first unbound one binds
    m = dimensionless(params, consts)
    levels = [surrogate_level(m, n, l) for l in range(3) for n in range(3)]
    assert {(lv.n, lv.l): round(lv.energy, 2) for lv in levels if lv.bound} == surrogate_bound
    grid = dataclasses.replace(cfg.grid, n_points=8000)
    for l, want in enumerate(bound_with_exact_barrier):
        veff = effective_potential(params, consts, l, grid.points())
        energies = fd_spectrum(veff, mapped(consts, grid, params), 3).energies
        assert [round(e, 2) for e in energies if e < params.asymptote] == want, l


@pytest.mark.parametrize("name", ["general", "rosen_morse", "poschl_teller", "scarf"])
def test_bundled_configs_have_no_bound_state(name):
    # A = 1, -1, 0, 0: level n binds only while A > 2 s alpha^2 (n + kappa_l)^2,
    # so no level does, and both oracles find box states only, every one
    # above the asymptote (smallest margin measured: 5.77e-3, general at l = 0)
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    params, consts, grid = cfg.params, cfg.consts, cfg.grid
    m = dimensionless(params, consts)
    for l in range(3):
        assert not any(surrogate_level(m, n, l).bound for n in range(3))
        veff = effective_potential(params, consts, l, grid.points())
        for solver in (fd_spectrum, numerov_spectrum):
            levels = list(solver(veff, mapped(consts, grid, params), 3).energies)
            assert len(levels) == 3
            assert min(levels) - params.asymptote >= 5.7e-3
