"""Numeric oracle: FD on LAPACK, Numerov shooting, study machinery."""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from hyperwell import oracle
from hyperwell.config import RadialGrid, parse_config
from hyperwell.errors import (
    ConvergenceError,
    DomainError,
    EvaluationOverflowError,
    ResolutionError,
    SamplingError,
    StructureError,
)
from hyperwell.exact import surrogate_level
from hyperwell.oracle import (
    NumericSpectrum,
    approximation_study,
    fall_to_center_unreliable,
    fd_spectrum,
    numerov_spectrum,
)
from hyperwell.potential import (
    PhysicalConstants,
    PotentialParams,
    effective_potential,
    eval_potential,
)

REPO = Path(__file__).resolve().parents[1]
CONSTS = PhysicalConstants(hbar=1.0, mass=0.5)  # hbar^2/(2m) = 1

BOX_GRID = RadialGrid(1e-9, 1.0, 2000)
OSC_GRID = RadialGrid(1e-6, 10.0, 2000)


def node_counts(spec):
    return [c for _, _, c in spec.levels]


def swept_numerov(monkeypatch, veff, consts, grid):
    """The lowest three Numerov levels and the grid points their sweeps
    covered (a matched outward/inward pair covers the grid once)."""
    swept = [0]
    real_sweep = oracle._numerov_sweep

    def counting(f, *args):
        swept[0] += f.shape[0]
        return real_sweep(f, *args)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_numerov_sweep", counting)
        spec = numerov_spectrum(veff, consts, grid, 3)
    return spec, swept[0]


def assert_numerov_scales(monkeypatch, ref, scaled, factor):
    """Numerov on `scaled` (veff, consts, grid) finds the levels it finds on
    `ref` times factor, to its documented 1e-10, in at most one full-grid
    sweep more."""
    spec_ref, swept_ref = swept_numerov(monkeypatch, *ref)
    spec, swept = swept_numerov(monkeypatch, *scaled)
    assert node_counts(spec) == node_counts(spec_ref) == [0, 1, 2]
    for (_, e, _), (_, e_ref, _) in zip(spec.levels, spec_ref.levels, strict=True):
        assert abs(e / factor - e_ref) <= 1e-10 * abs(e_ref)
    assert swept <= swept_ref + ref[2].n_points


def box(grid):
    return np.zeros(grid.n_points)


def oscillator(grid):
    r = grid.points()
    return r * r


class TestGrid:
    def test_points_and_h(self):
        g = RadialGrid(0.5, 1.5, 101)
        pts = g.points()
        assert len(pts) == 101
        assert pts[0] == 0.5 and pts[-1] == 1.5
        assert g.h == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(DomainError):
            RadialGrid(-1.0, 1.0, 100)
        with pytest.raises(DomainError):
            RadialGrid(1.0, 0.5, 100)
        with pytest.raises(DomainError):
            RadialGrid(0.1, 1.0, 8)



class TestBoxFixture:
    """Infinite square well on (0, 1): E_k = ((k+1) pi)^2 in these units."""

    def test_fd_ground_state(self):
        spec = fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 3)
        exact = [math.pi**2 * (k + 1) ** 2 for k in range(3)]
        for k in range(3):
            assert spec.levels[k][1] == pytest.approx(exact[k], rel=1e-3)
        # ground state is much tighter than the headline 0.1%
        assert abs(spec.levels[0][1] - exact[0]) / exact[0] < 1e-6

    def test_node_theorem(self):
        spec = fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 3)
        assert [lv[2] for lv in spec.levels] == [0, 1, 2]

    def test_wavefunction_normalized(self):
        spec = fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 2)
        r = BOX_GRID.points()
        for vec in spec.wavefunctions:
            assert np.trapezoid(vec * vec, r) == pytest.approx(1.0, abs=1e-8)
            assert len(vec) == BOX_GRID.n_points

    def test_numerov_matches_fd(self):
        grid = RadialGrid(1e-9, 1.0, 4000)
        fd = fd_spectrum(box(grid), CONSTS, grid, 3)
        nv = numerov_spectrum(box(grid), CONSTS, grid, 3)
        for k in range(3):
            e_fd, e_nv = fd.levels[k][1], nv.levels[k][1]
            assert abs(e_fd - e_nv) / max(1.0, abs(e_nv)) < 1e-6

    def test_numerov_auto_window(self):
        spec = numerov_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 2)
        assert spec.levels[0][1] == pytest.approx(math.pi**2, rel=1e-3)
        assert any("window auto-selected" in note for note in spec.notes)

    def test_order_h_squared_convergence(self):
        exact = math.pi**2
        coarse_grid, fine_grid = RadialGrid(1e-9, 1.0, 1001), RadialGrid(1e-9, 1.0, 2001)
        coarse = fd_spectrum(box(coarse_grid), CONSTS, coarse_grid, 1)
        fine = fd_spectrum(box(fine_grid), CONSTS, fine_grid, 1)
        err_c = abs(coarse.levels[0][1] - exact)
        err_f = abs(fine.levels[0][1] - exact)
        assert 3.5 < err_c / err_f < 4.5


class TestOscillatorFixture:
    """V = r^2 with u(0) = 0: the odd oscillator levels 3, 7, 11."""

    def test_fd_levels(self):
        spec = fd_spectrum(oscillator(OSC_GRID), CONSTS, OSC_GRID, 3)
        for k, exact in enumerate((3.0, 7.0, 11.0)):
            assert spec.levels[k][1] == pytest.approx(exact, rel=1e-3)

    def test_numerov_matches_fd(self):
        grid = RadialGrid(1e-6, 10.0, 8000)
        fd = fd_spectrum(oscillator(grid), CONSTS, grid, 3)
        # r_max is classically forbidden at every level
        nv = numerov_spectrum(oscillator(grid), CONSTS, grid, 3)
        for k in range(3):
            e_fd, e_nv = fd.levels[k][1], nv.levels[k][1]
            assert abs(e_fd - e_nv) / max(1.0, abs(e_nv)) < 1e-6, k

    def test_centrifugal_l_one(self):
        # V = r^2 + l(l+1)/r^2 with l = 1: even oscillator levels 5, 9
        r = OSC_GRID.points()
        spec = fd_spectrum(oscillator(OSC_GRID) + 2.0 / (r * r), CONSTS, OSC_GRID, 2)
        assert spec.levels[0][1] == pytest.approx(5.0, rel=1e-3)
        assert spec.levels[1][1] == pytest.approx(9.0, rel=1e-3)


def reference_scan_nodes(f, h2, u0, u1):
    """Node count of the outward Numerov sweep, one step at a time.

    The pointwise loop the banded sweep replaced: sign changes over the
    whole sweep, thresholded at 1e-8 of the running amplitude, with the
    sweep divided by 1e100 whenever it passes 1e100.
    """
    n = f.shape[0]
    c_prev = 1.0 - h2 * f[0] / 12.0
    c_cur = 1.0 - h2 * f[1] / 12.0
    up, uc = u0, u1
    umax = max(abs(up), abs(uc), 1e-300)
    nodes = 0
    last_sign = 0
    if abs(up) > 1e-8 * umax:
        last_sign = 1 if up > 0.0 else -1
    if abs(uc) > 1e-8 * umax:
        s = 1 if uc > 0.0 else -1
        if last_sign != 0 and s != last_sign:
            nodes += 1
        last_sign = s
    for j in range(1, n - 1):
        c_next = 1.0 - h2 * f[j + 1] / 12.0
        un = (2.0 * uc * (1.0 + 5.0 * h2 * f[j] / 12.0) - up * c_prev) / c_next
        assert math.isfinite(un)
        if abs(un) > 1e100:
            un /= 1e100
            uc /= 1e100
            umax = max(umax / 1e100, 1e-300)
        up, uc = uc, un
        c_prev, c_cur = c_cur, c_next
        umax = max(umax, abs(uc))
        if abs(uc) > 1e-8 * umax:
            s = 1 if uc > 0.0 else -1
            if last_sign != 0 and s != last_sign:
                nodes += 1
            last_sign = s
    return nodes


class TestNumerovSweep:
    @staticmethod
    def harmonic_f(E, n=2001, r_max=10.0):
        r = np.linspace(1e-6, r_max, n)
        h = r[1] - r[0]
        return r * r - E, h * h

    # (f, h^2, expected nodes): steep growth the sweep must carry without
    # overflow, and a strongly oscillating sweep
    STEEP = (
        # u'' = 400 u on [0, 50]: growth ~ e^1000
        (np.full(20001, 400.0), (50.0 / 20000) ** 2, 0),
        (np.full(8000, 5e4), (10.0 / 7999) ** 2, 0),
        (np.full(2000, 100.0), 1.0, 1998),
    )

    def test_matches_reference_on_oscillator(self):
        for E in np.linspace(0.0, 40.0, 400):
            f, h2 = self.harmonic_f(E)
            assert oracle._numerov_probe(f, h2, 0.0, 1e-8)[0] == \
                reference_scan_nodes(f, h2, 0.0, 1e-8), E

    def test_matches_reference_on_steep_fixtures(self):
        for f, h2, expected in self.STEEP:
            assert reference_scan_nodes(f, h2, 0.0, 1e-8) == expected
            assert oracle._numerov_probe(f, h2, 0.0, 1e-8)[0] == expected
            v, log_scale = oracle._numerov_sweep(f, h2, 0.0, 1e-8)
            assert np.all(np.isfinite(v)) and np.all(np.abs(v) < 1e300)

    def test_node_count_brackets_levels(self):
        # between oscillator levels 3 and 7 the sweep gains exactly one node
        f_lo, h2 = self.harmonic_f(5.0)
        f_hi, _ = self.harmonic_f(9.0)
        assert oracle._numerov_probe(f_hi, h2, 0.0, 1e-8)[0] \
            - oracle._numerov_probe(f_lo, h2, 0.0, 1e-8)[0] == 1

    def test_singular_step_raises(self):
        # h^2 f_j = 12 makes the coefficient c_j of u_j vanish
        f = np.zeros(64)
        f[40] = 12.0
        with pytest.raises(EvaluationOverflowError):
            oracle._numerov_probe(f, 1.0, 0.0, 1e-3)

    def test_restarts_match_exact_discrete_solution(self):
        # constant f: u_j = u_1 sinh(j theta)/sinh(theta) with
        # cosh(theta) = d/(2c) solves the recurrence exactly; it grows by
        # ~e^2986, so the sweep restarts from renormalised carry-ins
        n, h2, u1 = 3000, 1.0, 1e-8
        f = np.ones(n)
        c, d = 1.0 - h2 / 12.0, 2.0 * (1.0 + 5.0 * h2 / 12.0)
        theta = math.acosh(d / (2.0 * c))
        v, log_scale = oracle._numerov_sweep(f, h2, 0.0, u1)
        assert np.all(np.abs(v) <= math.exp(600.0))
        assert len(np.unique(log_scale)) > 5
        j = np.arange(1, n)
        exact = (math.log(u1) + j * theta + np.log1p(-np.exp(-2.0 * j * theta))
                 - math.log(2.0 * math.sinh(theta)))
        assert exact[-1] > 2980.0
        got = oracle._log_amplitude(v[1:], log_scale[1:])
        assert np.all(np.abs(got - exact) <= 1e-13 * np.maximum(np.abs(exact), 1.0))
        assert np.all(v[1:] > 0.0)

    def test_non_finite_step_raises(self):
        # the solve keeps the values before the NaN, then the restart from
        # there keeps none
        f = np.zeros(64)
        f[30] = np.nan
        with pytest.raises(EvaluationOverflowError):
            oracle._numerov_sweep(f, 1.0, 0.0, 1e-3)

    def test_wavefunctions_normalized(self):
        # past r = 1 the wall has h^2 f = 1, so the sweep grows by ~e^875
        # there, across two blocks: u*u overflows unless u is scaled by its
        # global maximum
        osc_grid, wall_grid = RadialGrid(1e-6, 10.0, 8000), RadialGrid(1e-9, 1.9, 1901)
        wall = np.where(wall_grid.points() > 1.0, 1e6, 0.0)
        cases = ((oscillator(osc_grid), osc_grid, 3), (wall, wall_grid, 1))
        for veff, grid, n_states in cases:
            spec = numerov_spectrum(veff, CONSTS, grid, n_states)
            assert len(spec.wavefunctions) == n_states
            for vec in spec.wavefunctions:
                assert np.all(np.isfinite(vec))
                assert np.trapezoid(vec * vec, spec.r) == pytest.approx(1.0, abs=1e-12)


def family_params(**kw):
    return PotentialParams(**{"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0,
                              "V0": 0.0, "V1": 0.0, "V2": 0.0, "alpha": 1.0, **kw})


class TestNumerovLevels:
    """Level location on wells with bound levels below the asymptote, where
    the outward sweep's tail grows past r_max, and on the demo's box states."""

    FAULT = family_params(a=1.0, V0=28.0, c=-2.0, V2=1.0)
    C2_WELL = family_params(a=1.0, V0=30.0, c=2.0, V2=0.02)
    FALL = family_params(a=1.0, b=0.2, c=1.3, d=0.5, V0=6.0, V1=0.5, V2=1.0, alpha=2.0)
    # (params, l, n_points) on the default grid; FD reads [0, 1, 2] on each
    WELLS = {
        "fault l0 2000": (FAULT, 0, 2000),
        "fault l0 8000": (FAULT, 0, 8000),
        "c2 well l0": (C2_WELL, 0, 2000),
        "c2 well l1": (C2_WELL, 1, 2000),
        "coth V0=20": (family_params(a=1.0, V0=20.0), 0, 2000),
        "fall l0": (FALL, 0, 2000),
    }

    @pytest.mark.parametrize("name", WELLS)
    def test_level_k_has_k_nodes(self, name):
        params, l, n_points = self.WELLS[name]
        grid = RadialGrid(1e-6, 40.0 / params.alpha, n_points)
        veff = effective_potential(params, CONSTS, l, grid.points())
        assert node_counts(numerov_spectrum(veff, CONSTS, grid, 3)) == [0, 1, 2]
        assert node_counts(fd_spectrum(veff, CONSTS, grid, 3)) == [0, 1, 2]

    def test_sweep_budget_and_dirichlet_root(self, monkeypatch):
        cfg = parse_config((REPO / "configs" / "general.cfg").read_text())
        sweeps = []
        real_sweep = oracle._numerov_sweep

        def counting(*args):
            sweeps.append(1)
            return real_sweep(*args)

        h = cfg.grid.h
        for l in range(3):
            veff = effective_potential(cfg.params, cfg.consts, l, cfg.grid.points())
            sweeps.clear()
            with monkeypatch.context() as m:
                m.setattr(oracle, "_numerov_sweep", counting)
                spec = numerov_spectrum(veff, cfg.consts, cfg.grid, 3)
            assert len(sweeps) <= 60, (l, len(sweeps))
            # hbar^2/(2m) = 1, so f = veff - E
            for k, E, _ in spec.levels:
                assert E > veff[-1]  # every demo level is a box state
                tol = 1e-10 * max(1.0, abs(E))
                _, below = oracle._numerov_probe(veff - (E - tol), h * h, 0.0, h)
                _, above = oracle._numerov_probe(veff - (E + tol), h * h, 0.0, h)
                assert below * above < 0.0, (l, k)

    # FAULT's two s-wave bound levels are the exact Eckart levels -53 and
    # -30.7778; each bound is the solver's measured error plus 10%
    DEEP_ERROR_BOUNDS = {
        ("numerov", 2000): (1.1 * 2.173e-2, 1.1 * 4.767e-3),
        ("numerov", 8000): (1.1 * 3.609e-4, 1.1 * 7.892e-5),
        ("fd", 2000): (1.1 * 7.245e-2, 1.1 * 1.996e-2),
        ("fd", 8000): (1.1 * 4.473e-3, 1.1 * 1.233e-3),
    }

    @pytest.mark.parametrize("solver, n_points", DEEP_ERROR_BOUNDS)
    def test_deep_levels_pinned_to_exact(self, solver, n_points):
        exact = [surrogate_level(self.FAULT, CONSTS, n, 0) for n in range(3)]
        assert [lv.bound for lv in exact] == [True, True, False]
        assert exact[0].energy == pytest.approx(-53.0, rel=1e-15)
        assert exact[1].energy == pytest.approx(-30.7778, abs=1e-4)

        grid = RadialGrid(1e-6, 40.0, n_points)
        solve = numerov_spectrum if solver == "numerov" else fd_spectrum
        spec = solve(eval_potential(self.FAULT, grid.points()), CONSTS, grid, 2)
        for k, bound in enumerate(self.DEEP_ERROR_BOUNDS[solver, n_points]):
            assert abs(spec.levels[k][1] - exact[k].energy) <= bound, k

    @pytest.mark.parametrize("l, n_points, budget", [
        (0, 2000, 40), (0, 8000, 40), (1, 2000, 50), (1, 8000, 50)])
    def test_deep_level_sweep_budget(self, monkeypatch, l, n_points, budget):
        # sweeps are counted as grid points swept over n_points
        grid = RadialGrid(1e-6, 40.0, n_points)
        spec, swept = swept_numerov(
            monkeypatch, effective_potential(self.FAULT, CONSTS, l, grid.points()), CONSTS, grid)
        assert node_counts(spec) == [0, 1, 2]
        assert swept / n_points <= budget

    # (effective potential of r, grid, lowest match index or None);
    # V = r^2/16 has its ground level 0.75 within 1 of the interior floor,
    # so that level's count bracket starts at the floor, where r_1 is the
    # only classically allowed interior point, and its matched sweeps
    # match at m = 1
    MATCHED = {
        **{name: (functools.partial(effective_potential, params, CONSTS, l),
                  RadialGrid(1e-6, 40.0 / params.alpha, n_points), None)
           for name, (params, l, n_points) in WELLS.items()},
        "oscillator m=1": (lambda r: r * r / 16.0, RadialGrid(1e-6, 40.0, 2000), 1),
    }

    @pytest.mark.parametrize("name", MATCHED)
    def test_matched_mismatch_root(self, monkeypatch, name):
        # every level whose r_max is classically forbidden sits on a sign
        # change of the matched mismatch, within the level tolerance
        potential, grid, lowest_match = self.MATCHED[name]
        # hbar^2/(2m) = 1, so f = veff - E
        veff = potential(grid.points())
        h = grid.h
        matched_at = []
        real_matched = oracle._matched_sweep

        def recording(f, h2, u0, u1, m):
            matched_at.append(m)
            return real_matched(f, h2, u0, u1, m)

        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_matched_sweep", recording)
            spec = numerov_spectrum(veff, CONSTS, grid, 3)
        if lowest_match is not None:
            assert min(matched_at) == lowest_match
        deep = [E for _, E, _ in spec.levels if veff[-1] > E]
        assert deep
        for E in deep:
            tol = 1e-10 * max(1.0, abs(E))
            m = int(np.flatnonzero(veff <= E - tol)[-1])
            below = oracle._matched_sweep(veff - (E - tol), h * h, 0.0, h, m)[1]
            above = oracle._matched_sweep(veff - (E + tol), h * h, 0.0, h, m)[1]
            assert below * above < 0.0, E

    def test_floor_with_nodes_is_resolution_error(self):
        params = family_params(a=1.0, V0=1000.0)
        coarse, fine = RadialGrid(1e-6, 40.0, 2000), RadialGrid(1e-6, 40.0, 8000)
        for l in range(3):
            with pytest.raises(ResolutionError, match="n_points = 2000"):
                numerov_spectrum(effective_potential(params, CONSTS, l, coarse.points()),
                                 CONSTS, coarse, 3)
        spec = numerov_spectrum(eval_potential(params, fine.points()), CONSTS, fine, 3)
        assert node_counts(spec) == [0, 1, 2]


class TestSurrogateLevels:
    """Both oracles on FAULT (perfbench.inputs.FAULT) with the cosech^2
    surrogate barrier, which makes the problem Eckart at every l, pinned
    to the exact levels of exact.surrogate_level where its bound flag is
    set."""

    FAULT = TestNumerovLevels.FAULT
    # (solver, l, n_points) -> per bound level n, 1.1 times the measured
    # relative error
    REL_ERROR_BOUNDS = {
        ("fd", 1, 2000): (1.1 * 1.951e-4, 1.1 * 3.434e-5),
        ("fd", 1, 8000): (1.1 * 1.221e-5, 1.1 * 2.144e-6),
        ("fd", 2, 2000): (1.1 * 9.880e-6,),
        ("fd", 2, 8000): (1.1 * 6.170e-7,),
        ("numerov", 1, 2000): (1.1 * 2.754e-6, 1.1 * 3.730e-7),
        ("numerov", 1, 8000): (1.1 * 1.202e-8, 1.1 * 1.620e-9),
        ("numerov", 2, 2000): (1.1 * 8.682e-9,),
        ("numerov", 2, 8000): (1.1 * 8.831e-12,),
    }

    @pytest.mark.parametrize("solver, l, n_points", REL_ERROR_BOUNDS)
    def test_bound_levels_pinned_to_exact(self, solver, l, n_points):
        # at l = 2 the formula's n = 1 value, -29.37, lies below the
        # asymptote -28 yet is no level: only the bound flag admits one
        bounds = self.REL_ERROR_BOUNDS[solver, l, n_points]
        exact = [surrogate_level(self.FAULT, CONSTS, n, l) for n in range(3)]
        assert [lv.bound for lv in exact] == [n < len(bounds) for n in range(3)]
        grid = RadialGrid(1e-6, 40.0, n_points)
        veff = effective_potential(self.FAULT, CONSTS, l, grid.points(), approximate=True)
        solve = numerov_spectrum if solver == "numerov" else fd_spectrum
        spec = solve(veff, CONSTS, grid, 3)
        assert node_counts(spec) == [0, 1, 2]
        for lv, rel in zip(exact, bounds):
            assert abs(spec.levels[lv.n][1] - lv.energy) <= rel * abs(lv.energy), lv.n

    @pytest.mark.parametrize("n_points", [3995, 8010])
    def test_excited_bound_state_is_a_matched_sweep(self, n_points):
        # level 1 at l = 1 (-28.136) is bound below the asymptote -28, but
        # its count bracket reaches above it, so regula falsi closes it; the
        # outward sweep there grows past the level and crosses zero near
        # r_max, which read [0, 2, 2]
        grid = RadialGrid(1e-6, 40.0, n_points)
        veff = effective_potential(self.FAULT, CONSTS, 1, grid.points(), approximate=True)
        spec = numerov_spectrum(veff, CONSTS, grid, 3)
        assert spec.levels[1][1] < veff[-1]
        assert node_counts(spec) == [0, 1, 2]

    @pytest.mark.parametrize("mu", [0.05, 0.5, 2.0, 20.0])
    def test_fd_length_scaling(self, monkeypatch, mu):
        # r -> r / mu: alpha -> mu alpha, grid -> grid / mu and V -> mu^2 V
        # give the same matrix times mu^2, so every level times mu^2, to
        # FD's documented 2.0e-13 (measured 3.8e-15); Numerov counts
        # energies in s (40/r_max)^2, so its levels follow too (measured
        # 5.0e-11)
        fault = dataclasses.replace(self.FAULT, V0=28.0 * mu * mu, V2=mu * mu, alpha=mu)
        grid = RadialGrid(1e-6, 40.0, 2000)
        small = RadialGrid(1e-6 / mu, 40.0 / mu, 2000)
        for l in (0, 1):
            veff_ref = effective_potential(self.FAULT, CONSTS, l, grid.points())
            veff = effective_potential(fault, CONSTS, l, small.points())
            ref = fd_spectrum(veff_ref, CONSTS, grid, 3)
            spec = fd_spectrum(veff, CONSTS, small, 3)
            assert node_counts(spec) == node_counts(ref) == [0, 1, 2]
            for (_, e, _), (_, e_ref, _) in zip(spec.levels, ref.levels, strict=True):
                assert abs(e / (mu * mu) - e_ref) <= 2.0e-13 * abs(e_ref)
            assert_numerov_scales(monkeypatch, (veff_ref, CONSTS, grid),
                                  (veff, CONSTS, small), mu * mu)


def sturm_levels(diag, off, n_levels, points=255):
    """The lowest n_levels eigenvalues of the symmetric tridiagonal matrix
    (diag, off), by Sturm-count multisection in np.longdouble from the
    Gershgorin interval: each pass counts the eigenvalues below `points`
    abscissae inside every level's bracket and keeps the two around it."""
    d = diag.astype(np.longdouble)
    e2 = off.astype(np.longdouble) ** 2
    reach = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    lo = np.full(n_levels, np.min(diag - reach) - 1.0, dtype=np.longdouble)
    hi = np.full(n_levels, np.max(diag + reach) + 1.0, dtype=np.longdouble)
    frac = np.arange(1, points + 1, dtype=np.longdouble) / (points + 1)
    k = np.arange(n_levels)[:, None]
    eps = np.finfo(np.longdouble).eps
    while np.any(hi - lo > 8 * eps * np.maximum(np.abs(lo), np.abs(hi))):
        x = lo[:, None] + (hi - lo)[:, None] * frac
        q = d[0] - x
        below = (q < 0).astype(int)
        with np.errstate(divide="ignore"):
            for i in range(1, d.size):
                q = (d[i] - x) - e2[i - 1] / q
                below += q < 0
        lo = np.max(np.where(below <= k, x, lo[:, None]), axis=1)
        hi = np.min(np.where(below > k, x, hi[:, None]), axis=1)
    return (lo + hi) / 2


def fd_with_matrix(monkeypatch, veff, grid, n_states):
    """fd_spectrum's result and the (diag, off) it handed to LAPACK."""
    seen = []

    def recording(diag, off, **kwargs):
        seen.append((diag.copy(), off.copy()))
        return eigh_tridiagonal(diag, off, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
    return fd_spectrum(veff, CONSTS, grid, n_states), seen[0]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
class TestFdAccuracy:
    """FD levels against a long-double Sturm bisection of the same matrix."""

    FAULT = family_params(a=1.0, V0=28.0, c=-2.0, V2=1.0)

    def test_fault_levels(self, monkeypatch):
        # worst relative error measured 8.2e-16 (3.7 eps); dstebz alone,
        # bisecting to 2 ulp, is off by up to 8.7e-15 (39 eps) here
        grid = RadialGrid(1e-6, 40.0, 2000)
        worst = 0.0
        for l in (0, 1):
            spec, matrix = fd_with_matrix(
                monkeypatch, effective_potential(self.FAULT, CONSTS, l, grid.points()), grid, 3)
            ref = sturm_levels(*matrix, 3)
            for (_, e, _), e_ref in zip(spec.levels, ref, strict=True):
                worst = max(worst, float(abs(e - e_ref) / max(1.0, abs(e_ref))))
        assert worst <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("scale", [1e-6, 1e8])
    def test_energy_unit(self, monkeypatch, scale):
        # hbar^2/2m and every V coefficient times `scale` multiply T, and so
        # every level, by `scale`; the brackets must follow (measured
        # agreement 6.5e-15 relative). Numerov's window and tolerances
        # scale with its unit s (40/r_max)^2 (measured 5.0e-11)
        fault = dataclasses.replace(self.FAULT, V0=28.0 * scale, V2=scale)
        consts = PhysicalConstants(hbar=1.0, mass=0.5 / scale)
        grid = RadialGrid(1e-6, 40.0, 2000)
        r = grid.points()
        for l in (0, 1):
            veff_ref = effective_potential(self.FAULT, CONSTS, l, r)
            veff = effective_potential(fault, consts, l, r)
            ref = fd_spectrum(veff_ref, CONSTS, grid, 3)
            spec = fd_spectrum(veff, consts, grid, 3)
            assert node_counts(spec) == node_counts(ref) == [0, 1, 2]
            for (_, e, _), (_, e_ref, _) in zip(spec.levels, ref.levels, strict=True):
                assert e / scale == pytest.approx(e_ref, rel=1e-13)
            assert_numerov_scales(monkeypatch, (veff_ref, CONSTS, grid),
                                  (veff, consts, grid), scale)

    def test_dense_box_levels(self):
        # general.cfg out to r_max = 3000: levels 1 to 3 are box levels 5.5e-6
        # and 7.7e-6 apart; levels 0..2 solve and match the 2-ulp bisection
        # (measured 3.5e-15 relative; the Sturm counts round at 6e-15 of this
        # small ||T||)
        cfg = parse_config((REPO / "configs" / "general.cfg").read_text()
                           + "grid.r_max = 3000\ngrid.n_points = 8000\n")
        spec = fd_spectrum(eval_potential(cfg.params, cfg.grid.points()), cfg.consts, cfg.grid, 3)
        r = cfg.grid.points()[1:-1]
        t = 1.0 / cfg.grid.h**2
        ref = eigh_tridiagonal(2.0 * t + eval_potential(cfg.params, r), np.full(r.size - 1, -t),
                               eigvals_only=True, select="i", select_range=(0, 3))
        energies = [e for _, e, _ in spec.levels]
        assert 0.0 < ref[3] - ref[2] < 1e-5
        assert energies == pytest.approx(ref[:3], rel=1e-13)
        assert node_counts(spec) == [0, 1, 2]

    GRID = RadialGrid(1e-9, 1.0, 2001)

    # two identical wells behind a barrier of 4e4: their symmetric and
    # antisymmetric levels lie 8.0e-9 apart, inside one coarse bracket
    DOUBLE_WELL = np.where(np.abs(GRID.points() - 0.5) < 0.05025, 4e4, 0.0)

    @pytest.mark.parametrize("n_states", [1, 2, 3])
    def test_near_degenerate_pair(self, monkeypatch, n_states):
        # the pair in the block or across its end: the block grows to hold
        # both, and the Ritz step separates their vectors
        spec, matrix = fd_with_matrix(monkeypatch, self.DOUBLE_WELL, self.GRID, n_states)
        ref = sturm_levels(*matrix, n_states)
        split = float(ref[1] - ref[0]) if n_states > 1 else 8.0e-9
        energies = [e for _, e, _ in spec.levels]
        assert all(e1 < e2 for e1, e2 in zip(energies, energies[1:]))
        for e, e_ref in zip(energies, ref, strict=True):
            assert abs(e - float(e_ref)) <= 1e-3 * split
        assert node_counts(spec) == list(range(n_states))


class TestSpectrumStructure:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(StructureError):
            NumericSpectrum(
                method="FiniteDifference",
                levels=((0, 2.0, 0), (1, 1.0, 1)),
                wavefunctions=(),
                r=BOX_GRID.points(),
            )

    def test_wrong_shape_rejected(self):
        # one sample per grid point, no more and no fewer
        short = np.zeros(OSC_GRID.n_points - 1)
        for solver in (fd_spectrum, numerov_spectrum):
            with pytest.raises(DomainError, match="shape"):
                solver(short, CONSTS, OSC_GRID, 1)

    def test_nonfinite_sample_named(self):
        r = BOX_GRID.points()
        bad = np.where(np.abs(r - 0.5) < 0.01, np.nan, 0.0)
        for solver in (fd_spectrum, numerov_spectrum):
            with pytest.raises(SamplingError, match="non-finite") as info:
                solver(bad, CONSTS, BOX_GRID, 1)
            assert info.value.r == r[np.isnan(bad)][0]

    def test_too_many_states_rejected(self):
        with pytest.raises(DomainError):
            grid = RadialGrid(1e-9, 1.0, 100)
            fd_spectrum(box(grid), CONSTS, grid, 30)

    def test_zero_states(self):
        spec = fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 0)
        assert spec.levels == ()

    def test_near_origin_lobe_positive(self):
        # box level 1 has two mirror-image lobes whose extremes differ only
        # by roundoff, so a largest-component rule would pick its sign by chance
        specs = (fd_spectrum(oscillator(OSC_GRID), CONSTS, OSC_GRID, 3),
                 fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 2),
                 numerov_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 2))
        for spec in specs:
            for k, vec in enumerate(spec.wavefunctions):
                lobe = vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))]
                assert lobe[0] > 0.0, (spec.method, k)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("stein (eigh_tridiagonal) failed")

        monkeypatch.setattr(oracle, "eigh_tridiagonal", failing)
        with pytest.raises(ConvergenceError):
            fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 1)

    def test_polluted_vector_is_convergence_error(self, monkeypatch):
        # a vector that is no eigenvector moves its level out of the bracket
        def polluted(*args, **kwargs):
            if kwargs.get("eigvals_only"):
                return eigh_tridiagonal(*args, **kwargs)
            coarse, vecs = eigh_tridiagonal(*args, **kwargs)
            vecs[:, 0] = np.random.default_rng(7).standard_normal(vecs.shape[0])
            vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
            return coarse, vecs

        monkeypatch.setattr(oracle, "eigh_tridiagonal", polluted)
        with pytest.raises(ConvergenceError, match="left its bracket"):
            fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 2)

    def test_block_growth_is_bounded(self, monkeypatch):
        # with every level closer than the gap the block would hold the
        # whole spectrum; it stops at n_points/4
        monkeypatch.setattr(oracle, "_EIG_GAP", 1e15)
        with pytest.raises(ConvergenceError, match="closer than"):
            fd_spectrum(box(BOX_GRID), CONSTS, BOX_GRID, 1)


class TestFallToCenter:
    def test_demo_is_safe_at_l_zero(self):
        demo = PotentialParams(a=1.0, b=0.01, c=2.0, d=2.0,
                               V0=1.0, V1=0.5, V2=0.02, alpha=1.0)
        # b V1 - c V2 = 0.005 - 0.04 = -0.035 < -1/4... check against -hbar^2/(8m)
        assert fall_to_center_unreliable(demo, CONSTS, 0) is False

    def test_strong_attractive_csch2_flagged(self):
        deep = PotentialParams(a=0.0, b=0.0, c=10.0, d=0.0,
                               V0=0.0, V1=0.0, V2=1.0, alpha=1.0)
        # c V2 = 10 => inverse-square coefficient -10 << -1/4
        assert fall_to_center_unreliable(deep, CONSTS, 0) is True

    def test_centrifugal_rescues(self):
        deep = PotentialParams(a=0.0, b=0.0, c=10.0, d=0.0,
                               V0=0.0, V1=0.0, V2=1.0, alpha=1.0)
        assert fall_to_center_unreliable(deep, CONSTS, 3) is False


class TestApproximationStudy:
    STUDY = PotentialParams(a=1.0, b=0.0, c=0.0, d=0.0,
                            V0=200.0, V1=0.0, V2=0.0, alpha=1.0)
    GRID = RadialGrid(1e-6, 4.0, 4000)

    def test_requires_positive_l(self):
        with pytest.raises(DomainError):
            approximation_study(self.STUDY, CONSTS, 0, self.GRID, 1)

    def test_rows_and_shift_consistency(self):
        rep = approximation_study(self.STUDY, CONSTS, 1, self.GRID, 1)
        assert rep.l == 1 and rep.alpha == 1.0
        k, e_exact, e_approx, d_abs, d_rel = rep.levels[0]
        assert k == 0
        assert d_abs == pytest.approx(abs(e_exact - e_approx))
        assert d_rel == pytest.approx(d_abs / abs(e_exact), rel=1e-9)
        assert max(row[4] for row in rep.levels) == pytest.approx(d_rel)

    def test_surrogate_softens_barrier(self):
        # alpha^2 csch^2 < 1/r^2, so the approximate level sits lower
        rep = approximation_study(self.STUDY, CONSTS, 1, self.GRID, 1)
        _, e_exact, e_approx, _, _ = rep.levels[0]
        assert e_approx < e_exact
