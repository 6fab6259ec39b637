"""Units: the solvers and the exact levels work in rho = alpha r and
eps = E/(s alpha^2), s = hbar^2/(2m), and map back to the config's unit.

They follow a change of unit: exactly under power-of-two scalings, and
within their tolerances otherwise. The printed closed forms do not, and
that is pinned as data. Last, the contract `perfbench` reads: the names it
traces, and solver levels in the config's unit.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hyperwell.analytic import energy_levels
from hyperwell.config import RadialGrid, parse_config
from hyperwell.errors import SingularCoefficientError
from hyperwell.exact import kappa_radicand, surrogate_level
from hyperwell.oracle import fd_spectrum, numerov_spectrum
from hyperwell.potential import (
    PhysicalConstants,
    PotentialParams,
    dimensionless,
    effective_potential,
)
from hyperwell.reporting import build_oracle_report

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

DEPTHS = ("V0", "V1", "V2", "d")


@pytest.fixture(scope="module")
def draws():
    """golden's seeded draws, draw0 .. draw3."""
    return golden._inputs()[1]


def config(p, n_points, hbar=1.0, mass=0.5):
    """The config of family parameters p at n_points, with hbar and mass."""
    cfg = parse_config(inputs.cfg_text(p, n_points))
    return replace(cfg, consts=PhysicalConstants(hbar=hbar, mass=mass))


def scaled(cfg, depth, alpha=1.0, length=1.0, mass=None):
    """cfg with every depth times `depth`, alpha times `alpha`, the grid's
    ends times `length` and, if given, the mass."""
    params = replace(cfg.params, alpha=cfg.params.alpha * alpha,
                     **{k: getattr(cfg.params, k) * depth for k in DEPTHS})
    grid = RadialGrid(cfg.grid.r_min * length, cfg.grid.r_max * length, cfg.grid.n_points)
    consts = cfg.consts if mass is None else replace(cfg.consts, mass=mass)
    return replace(cfg, params=params, consts=consts, grid=grid)


def solved(cfg, l, n_states=3):
    """(FD, Numerov, exact levels or None at a fall to centre) at l."""
    params, consts, grid = cfg.params, cfg.consts, cfg.grid
    veff = effective_potential(params, consts, l, grid.points())
    m = dimensionless(params, consts, grid)
    exact = (None if kappa_radicand(m, l) < 0.0
             else [surrogate_level(m, n, l) for n in range(n_states)])
    return fd_spectrum(veff, m, n_states), numerov_spectrum(veff, m, n_states), exact


class TestCovariance:
    # (input, n_points): FAULT and FALL at 2000 points, draw2 at 8000
    CASES = [("fault", 2000), ("fall", 2000), ("draw2", 8000)]

    @pytest.fixture
    def base(self, draws, request):
        name, n_points = request.param
        p = {"fault": inputs.FAULT, "fall": inputs.FALL}.get(name) or draws[name]
        return config(p, n_points)

    @pytest.mark.parametrize("base", CASES, indirect=True, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("change, factor", [
        # hbar^2/2m and every depth times 2 (mass 0.25 makes s = 2)
        (dict(depth=2.0, mass=0.25), 2.0),
        # lengths times 1/2: alpha times 2, depths times 4, the grid halved
        (dict(depth=4.0, alpha=2.0, length=0.5), 4.0),
    ], ids=["energy", "length"])
    def test_power_of_two_scalings_are_exact(self, base, change, factor):
        # v = V/(s alpha^2), the rho grid and so every eps are the same bits;
        # only the map back multiplies, by a power of two
        other = scaled(base, **change)
        for l in range(3):
            fd, nm, exact = solved(base, l)
            fd2, nm2, exact2 = solved(other, l)
            for ref, spec in ((fd, fd2), (nm, nm2)):
                assert spec.energies == tuple(factor * e for e in ref.energies)
                assert spec.node_counts == ref.node_counts
            if exact is not None:
                assert [lv.energy for lv in exact2] == [factor * lv.energy for lv in exact]
                assert [lv.bound for lv in exact2] == [lv.bound for lv in exact]

    def test_tenth_of_the_unit_within_tolerance(self, draws):
        # draw0 with hbar 2 (s = 4) against s = 0.4 and every depth times
        # 0.1: FD within eps ||T||, T's Gershgorin bound, and Numerov within
        # its 1e-10 max(unit, |E|) stop
        lam = 0.1
        base = config(draws["draw0"], 8000, hbar=2.0)
        other = scaled(base, depth=lam, mass=5.0)
        s, grid = other.consts.s, other.grid
        unit = s * (40.0 / grid.r_max) ** 2
        for l in range(3):
            fd, nm, _ = solved(base, l)
            fd2, nm2, _ = solved(other, l)
            veff = effective_potential(other.params, other.consts, l, grid.points())
            t = s / grid.h ** 2
            norm = float(np.max(np.abs(2.0 * t + veff[1:-1]))) + 2.0 * t
            assert fd2.node_counts == fd.node_counts and nm2.node_counts == nm.node_counts
            for e, e2 in zip(fd.energies, fd2.energies, strict=True):
                assert abs(e2 - lam * e) <= np.finfo(float).eps * norm
            for e, e2 in zip(nm.energies, nm2.energies, strict=True):
                assert abs(e2 - lam * e) <= 1e-10 * max(unit, abs(e2))

    def test_printed_forms_are_not_covariant(self):
        # FAULT with s = 0.1 and every depth times 0.1 leaves beta^2 =
        # a V0/(s alpha^2) = 28 and gamma^2 as they are, so both roots keep
        # their eps^2; yet the printed E adds beta^2/4 = 7 as a pure number,
        # not in units of s alpha^2, so E_B/lambda - E_A = -7 (1/lambda - 1)
        lam = 0.1
        base = config(inputs.FAULT, 2000)
        other = scaled(base, depth=lam, mass=5.0)
        for n in range(2):
            for lv, lv2 in zip(energy_levels(base.params, base.consts, n, 0),
                               energy_levels(other.params, other.consts, n, 0), strict=True):
                cause = -lv.dp.beta2.real / 4.0 * (1.0 / lam - 1.0)
                assert lv.dp.beta2.real == pytest.approx(28.0, rel=1e-14)
                assert lv2.energy / lam - lv.energy == pytest.approx(cause, abs=1e-9)
                assert cause == pytest.approx(-63.0, rel=1e-14)


class TestMap:
    def test_unit_config_maps_exactly(self):
        cfg = parse_config((ROOT / "configs" / "general.cfg").read_text())
        m = dimensionless(cfg.params, cfg.consts, cfg.grid)
        p = cfg.params
        assert (m.scale, m.A, m.B, m.C, m.h) == (1.0, p.A, p.B, p.C, cfg.grid.h)

    @pytest.mark.parametrize("text, reason", [
        ("potential.alpha = 1e160\ngrid.r_min = 3\ngrid.r_max = 1e30\n",
         "s alpha^2 = inf makes the 1/(s alpha^2) energy scale singular"),
        ("potential.alpha = 1e-160\n",
         "s alpha^2 = 1e-320 makes the 1/(s alpha^2) energy scale singular"),
        ("potential.alpha = 1e-150\npotential.V0 = 1e10\n",
         "beta^2 = a V0/(s alpha^2) = inf is not finite"),
        ("potential.alpha = 1e-150\npotential.V1 = -1e12\n",
         "(b V1 - c V2)/(s alpha^2) = -inf is not finite"),
    ])
    def test_check_names_the_quantity(self, text, reason):
        # no numpy warning on the way: pytest makes warnings errors
        cfg = parse_config(text)
        m = dimensionless(cfg.params, cfg.consts, cfg.grid)
        with pytest.raises(SingularCoefficientError) as info:
            m.coefficients()
        assert str(info.value) == reason

    def test_solvers_need_only_a_finite_unit(self):
        # 1/(s alpha^2) overflows at s = 1e-320, yet the unit itself is
        # positive and finite, so the solvers take it and refuse on their
        # own terms; an infinite unit the map refuses
        tiny = dimensionless(PotentialParams(0, 0, 0, 1.0, 0, 0, 0, 1.0),
                             PhysicalConstants(hbar=1e-160), None)
        assert tiny.unit() == tiny.scale > 0.0
        with pytest.raises(SingularCoefficientError):
            tiny.unit(inverse=True)


class TestPerfbenchContract:
    def test_traced_names_resolve(self):
        for dotted in spans.TRACED:
            mod, _, fn = dotted.partition(".")
            assert callable(getattr(importlib.import_module(f"hyperwell.{mod}"), fn)), dotted

    def test_solver_levels_are_in_the_config_unit(self):
        # FAULT at alpha = 1.5 and s = 0.1, its depths times s alpha^2, so that
        # A/(s alpha^2) = 28 binds two levels at l = 0 and one at l = 1, as at
        # s = alpha = 1: each solver runs once per l, and spans counts those
        # bound against the physical asymptote; FD and Numerov agree with
        # perfbench's own Eckart levels to the grid's accuracy (1.4e-3 at 2000
        # points)
        scale = 0.1 * 1.5 ** 2
        p = {**inputs.FAULT, "alpha": 1.5, **{k: inputs.FAULT[k] * scale for k in DEPTHS}}
        cfg = replace(config(p, 2000, mass=5.0), n_list=(0, 1, 2), l_list=(0, 1))
        assert cfg.consts.s == pytest.approx(0.1, rel=1e-15)
        tracer = spans.Tracer()
        tracer.asymptote = reference.asymptote(p)
        tracer.install()
        try:
            doc = build_oracle_report(cfg)
        finally:
            tracer.remove()
        calls = tracer.self_times()
        assert calls["oracle.fd_spectrum"][0] == calls["oracle.numerov_spectrum"][0] == 2
        assert tracer.levels == 12 and tracer.bound_levels == 6
        l0 = doc["per_l"][0]
        for n in range(2):
            level, bound = reference.eckart_level(p, cfg.consts.s, n)
            assert bound
            for key in ("fd", "numerov"):
                assert l0[key]["energies"][n] == pytest.approx(level, rel=5e-3)
