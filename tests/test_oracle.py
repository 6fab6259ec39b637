"""Numeric oracle: FD on LAPACK and Numerov shooting."""

import dataclasses
import functools
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eig_banded, eigh_tridiagonal, lapack, solve_banded

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
from hyperwell.exact import eckart_state, fall_to_center_unreliable, surrogate_level
from hyperwell.oracle import NumericSpectrum, fd_spectrum, numerov_spectrum
from hyperwell.potential import (
    PhysicalConstants,
    PotentialParams,
    dimensionless,
    effective_potential,
    eval_potential,
)
from params import FAULT, family_params, mapped, seeded_params

REPO = Path(__file__).resolve().parents[1]
CONSTS = PhysicalConstants(hbar=1.0, mass=0.5)  # hbar^2/(2m) = 1

BOX_GRID = RadialGrid(1e-9, 1.0, 2000)
OSC_GRID = RadialGrid(1e-6, 10.0, 2000)


def node_counts(spec):
    return list(spec.node_counts)


def matched_phase(f, h2, m=None):
    """Theta of the Numerov probe at f = (V - E)/s, matched at m, by
    default where the solver matches."""
    m = oracle._match_point(f) if m is None else m
    return oracle._matched_phase(f, h2, m)


def matched_count(f, h2, m=None):
    """floor(Theta/pi): the number of levels below E."""
    return int(matched_phase(f, h2, m) // math.pi)


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
        spec = numerov_spectrum(veff, mapped(consts, grid), 3)
    return spec, swept[0]


def joined_state(f, h2):
    """The Numerov state at f = (V - E)/s from two sweeps: the outward one up
    to the match point m joined to the inward one past it, scaled so that
    their pairs at (m, m + 1) agree in length and sign."""
    m = oracle._match_point(f)
    (v_out, s_out), (v_in, s_in) = (oracle._numerov_sweep(f[:m + 2], h2),
                                    oracle._numerov_sweep(f[m:][::-1], h2))
    out, inward = v_out * np.exp(s_out - s_out[-1]), v_in * np.exp(s_in - s_in[-1])
    pair_out, pair_in = out[m:], inward[:-3:-1]
    size = math.hypot(*pair_out) / math.hypot(*pair_in)
    return np.concatenate((out[:m + 1], math.copysign(size, pair_out @ pair_in) * inward[-2::-1]))


def assert_numerov_scales(monkeypatch, ref, scaled, factor):
    """Numerov on `scaled` (veff, consts, grid) finds the levels it finds on
    `ref` times factor, to its documented 1e-10, in at most one full-grid
    sweep more."""
    spec_ref, swept_ref = swept_numerov(monkeypatch, *ref)
    spec, swept = swept_numerov(monkeypatch, *scaled)
    assert node_counts(spec) == node_counts(spec_ref) == [0, 1, 2]
    for e, e_ref in zip(spec.energies, spec_ref.energies, strict=True):
        assert abs(e / factor - e_ref) <= 1e-10 * abs(e_ref)
    assert swept <= swept_ref + ref[2].n_points


def surrogate_well(name, l, n_points):
    """(params, consts, grid, veff) of a bundled config at n_points on the
    extent [1e-6, 40/alpha], veff with the cosech^2 surrogate barrier."""
    cfg = parse_config((REPO / "configs" / f"{name}.cfg").read_text())
    grid = RadialGrid(1e-6, 40.0 / cfg.params.alpha, n_points)
    veff = effective_potential(cfg.params, cfg.consts, l, grid.points(), approximate=True)
    return cfg.params, cfg.consts, grid, veff


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
        spec = fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 3)
        exact = [math.pi**2 * (k + 1) ** 2 for k in range(3)]
        for k in range(3):
            assert spec.energies[k] == pytest.approx(exact[k], rel=1e-3)
        # ground state is much tighter than the headline 0.1%
        assert abs(spec.energies[0] - exact[0]) / exact[0] < 1e-6

    def test_node_theorem(self):
        spec = fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 3)
        assert list(spec.node_counts) == [0, 1, 2]

    def test_wavefunction_normalized(self):
        spec = fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 2)
        r = BOX_GRID.points()
        for vec in spec.wavefunctions:
            assert np.trapezoid(vec * vec, r) == pytest.approx(1.0, abs=1e-8)
            assert len(vec) == BOX_GRID.n_points

    def test_numerov_matches_fd(self):
        grid = RadialGrid(1e-9, 1.0, 4000)
        fd = fd_spectrum(box(grid), mapped(CONSTS, grid), 3)
        nv = numerov_spectrum(box(grid), mapped(CONSTS, grid), 3)
        for k in range(3):
            e_fd, e_nv = fd.energies[k], nv.energies[k]
            assert abs(e_fd - e_nv) / max(1.0, abs(e_nv)) < 1e-6

    def test_numerov_auto_window(self):
        spec = numerov_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 2)
        assert spec.energies[0] == pytest.approx(math.pi**2, rel=1e-3)
        assert any("window auto-selected" in note for note in spec.notes)

    def test_order_h_squared_convergence(self):
        exact = math.pi**2
        coarse_grid, fine_grid = RadialGrid(1e-9, 1.0, 1001), RadialGrid(1e-9, 1.0, 2001)
        coarse = fd_spectrum(box(coarse_grid), mapped(CONSTS, coarse_grid), 1)
        fine = fd_spectrum(box(fine_grid), mapped(CONSTS, fine_grid), 1)
        err_c = abs(coarse.energies[0] - exact)
        err_f = abs(fine.energies[0] - exact)
        assert 3.5 < err_c / err_f < 4.5


class TestOscillatorFixture:
    """V = r^2 with u(0) = 0: the odd oscillator levels 3, 7, 11."""

    def test_fd_levels(self):
        spec = fd_spectrum(oscillator(OSC_GRID), mapped(CONSTS, OSC_GRID), 3)
        for k, exact in enumerate((3.0, 7.0, 11.0)):
            assert spec.energies[k] == pytest.approx(exact, rel=1e-3)

    def test_numerov_matches_fd(self):
        grid = RadialGrid(1e-6, 10.0, 8000)
        fd = fd_spectrum(oscillator(grid), mapped(CONSTS, grid), 3)
        # r_max is classically forbidden at every level
        nv = numerov_spectrum(oscillator(grid), mapped(CONSTS, grid), 3)
        for k in range(3):
            e_fd, e_nv = fd.energies[k], nv.energies[k]
            assert abs(e_fd - e_nv) / max(1.0, abs(e_nv)) < 1e-6, k

    def test_centrifugal_l_one(self):
        # V = r^2 + l(l+1)/r^2 with l = 1: even oscillator levels 5, 9
        r = OSC_GRID.points()
        spec = fd_spectrum(oscillator(OSC_GRID) + 2.0 / (r * r), mapped(CONSTS, OSC_GRID), 2)
        assert spec.energies[0] == pytest.approx(5.0, rel=1e-3)
        assert spec.energies[1] == pytest.approx(9.0, rel=1e-3)


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
    # overflow, and a sweep whose sign alternates at every step, where
    # c = 1 - h^2 f/12 < 0 and sign changes count no levels
    STEEP = (
        # u'' = 400 u on [0, 50]: growth ~ e^1000
        (np.full(20001, 400.0), (50.0 / 20000) ** 2, 0),
        (np.full(8000, 5e4), (10.0 / 7999) ** 2, 0),
        (np.full(2000, 100.0), 1.0, 1998),
    )

    def test_matches_reference_on_oscillator(self):
        # floor(Theta/pi) counts the outward sweep's nodes at the solver's
        # match point and at any other
        for E in np.linspace(0.0, 40.0, 400):
            f, h2 = self.harmonic_f(E)
            expected = reference_scan_nodes(f, h2, 0.0, 1e-8)
            for m in (None, 1, 1000, f.size - 2):
                assert matched_count(f, h2, m) == expected, (E, m)

    def test_matches_reference_on_steep_fixtures(self):
        for f, h2, expected in self.STEEP:
            assert reference_scan_nodes(f, h2, 0.0, 1e-8) == expected
            v, log_scale = oracle._numerov_sweep(f, h2)
            assert np.all(np.isfinite(v)) and np.all(np.abs(v) < 1e300)
            if h2 * f[0] < 12.0:
                assert matched_count(f, h2) == expected

    def test_node_count_brackets_levels(self):
        # between oscillator levels 3 and 7 the count rises by exactly one
        f_lo, h2 = self.harmonic_f(5.0)
        f_hi, _ = self.harmonic_f(9.0)
        assert matched_count(f_hi, h2) - matched_count(f_lo, h2) == 1

    def test_end_phase_needs_a_turning_step(self):
        # constant f: the recurrence turns u by theta = arccos(d/2c) per
        # step, a rotation only while h^2 |f| < 6 (about 2.5 points per
        # wavelength). Matched at n - 2, where r_max's neighbour or no point
        # is allowed, the inward pair is (0, 1) and Theta is the end phase,
        # theta counted once per step. Where the recurrence does not turn
        # at m, theta is pi/2
        n = 400
        for h2f, turning in ((-5.9, True), (-6.1, False), (0.5, False)):
            f = np.full(n, h2f)
            m = oracle._match_point(f)
            assert m == n - 2
            phase = oracle._matched_phase(f, 1.0, m)
            if turning:
                q = h2f / 12.0
                theta = math.acos((1.0 + 5.0 * q) / (1.0 - q))
                assert phase == pytest.approx((n - 1) * theta, rel=1e-10)
            else:
                # the outward sweep alone: pi N + atan2(|a|, b sign a) + pi/2
                v, log_scale = oracle._numerov_sweep(f, 1.0)
                a = v[-2] * math.exp(log_scale[-2] - log_scale[-1])
                flips = np.count_nonzero(np.diff(np.signbit(v[:-1])))
                assert phase == pytest.approx(
                    math.pi * flips + math.atan2(abs(a), v[-1] * math.copysign(1.0, a))
                    + 0.5 * math.pi, rel=1e-12)
            assert int(phase // math.pi) == reference_scan_nodes(f, 1.0, 0.0, 1e-3), h2f

    def test_singular_step_raises(self):
        # h^2 f_j = 12 makes the coefficient c_j of u_j vanish, in the
        # outward sweep (m past j) or the inward one
        f = np.zeros(64)
        f[40] = 12.0
        for m in (1, 50):
            with pytest.raises(EvaluationOverflowError):
                oracle._matched_phase(f, 1.0, m)

    def test_restarts_match_exact_discrete_solution(self):
        # constant f: u_j = sinh(j theta)/sinh(theta) with
        # cosh(theta) = d/(2c) solves the recurrence from (0, 1) exactly; it
        # grows by ~e^2986, so the sweep restarts from renormalised carry-ins
        n, h2 = 3000, 1.0
        f = np.ones(n)
        c, d = 1.0 - h2 / 12.0, 2.0 * (1.0 + 5.0 * h2 / 12.0)
        theta = math.acosh(d / (2.0 * c))
        v, log_scale = oracle._numerov_sweep(f, h2)
        assert np.all(np.abs(v) <= math.exp(600.0))
        assert len(np.unique(log_scale)) > 5
        j = np.arange(1, n)
        exact = (j * theta + np.log1p(-np.exp(-2.0 * j * theta))
                 - math.log(2.0 * math.sinh(theta)))
        assert exact[-1] > 2980.0
        assert np.all(v[1:] > 0.0)
        got = np.log(v[1:]) + log_scale[1:]
        assert np.all(np.abs(got - exact) <= 1e-13 * np.maximum(np.abs(exact), 1.0))

    def test_non_finite_step_raises(self):
        # the solve keeps the values before the NaN, then the restart from
        # there keeps none
        f = np.zeros(64)
        f[30] = np.nan
        with pytest.raises(EvaluationOverflowError):
            oracle._numerov_sweep(f, 1.0)

    def test_wavefunctions_normalized(self):
        # past r = 1 the wall has h^2 f = 1, so the sweep grows by ~e^875
        # there, across two blocks: u*u overflows unless u is scaled by its
        # global maximum
        osc_grid, wall_grid = RadialGrid(1e-6, 10.0, 8000), RadialGrid(1e-9, 1.9, 1901)
        wall = np.where(wall_grid.points() > 1.0, 1e6, 0.0)
        cases = ((oscillator(osc_grid), osc_grid, 3), (wall, wall_grid, 1))
        for veff, grid, n_states in cases:
            spec = numerov_spectrum(veff, mapped(CONSTS, grid), n_states)
            assert len(spec.wavefunctions) == n_states
            for vec in spec.wavefunctions:
                assert np.all(np.isfinite(vec))
                assert np.trapezoid(vec * vec, spec.r) == pytest.approx(1.0, abs=1e-12)


class TestNumerovLevels:
    """Level location on wells with bound levels below the asymptote, where
    the outward sweep's tail grows past r_max, and on the demo's box states."""

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
        assert node_counts(numerov_spectrum(veff, mapped(CONSTS, grid, params), 3)) == [0, 1, 2]
        assert node_counts(fd_spectrum(veff, mapped(CONSTS, grid, params), 3)) == [0, 1, 2]

    @pytest.mark.parametrize("n_points", [2000, 8000])
    def test_states_are_null_vectors_of_the_recurrence(self, n_points):
        # at the level's eps, within eps_k +- tol/2 of the Dirichlet root
        # (tol = 1e-10 max(unit, |eps|)), the recurrence's residual on the
        # state is at most h^2 |eps - eps_k| max|u|, plus rounding (measured
        # 5.9e-14 and 3.6e-15 of max|u| (|c| + |d| + |c|) at 2000 and 8000
        # points); and the state is the one two sweeps joined at m give, to
        # a fidelity loss 1 - |<u|w>| of 1e-13 (measured 1.7e-15)
        grid = RadialGrid(1e-6, 40.0, n_points)
        m = mapped(CONSTS, grid, FAULT)
        h2 = m.h * m.h
        for l in (0, 1):
            veff = effective_potential(FAULT, CONSTS, l, grid.points())
            spec = numerov_spectrum(veff, m, 3)
            for k, (E, u) in enumerate(zip(spec.energies, spec.wavefunctions)):
                eps = E / m.unit()
                f = veff / m.unit() - eps
                f[0] = 0.0
                c, d = 1.0 - h2 * f / 12.0, 2.0 + 10.0 * h2 * f / 12.0
                residual = c[:-2] * u[:-2] - d[1:-1] * u[1:-1] + c[2:] * u[2:]
                bound = h2 * 1e-10 * max(1.0, abs(eps)) * np.max(np.abs(u))
                assert np.max(np.abs(residual)) <= bound, (l, k)
                w = joined_state(f, h2)
                loss = 1.0 - abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
                assert loss <= 1e-13, (l, k)

    def test_sweep_budget_and_dirichlet_root(self, monkeypatch):
        # sweeps are counted as grid points swept over n_points
        cfg = parse_config((REPO / "configs" / "general.cfg").read_text())
        h = cfg.grid.h
        # 1.1 x the measured sweeps (16, 20, 22)
        for l, budget in enumerate((1.1 * 16, 1.1 * 20, 1.1 * 22)):
            veff = effective_potential(cfg.params, cfg.consts, l, cfg.grid.points())
            spec, swept = swept_numerov(monkeypatch, veff, cfg.consts, cfg.grid)
            assert swept / cfg.grid.n_points <= budget, (l, swept)
            # hbar^2/(2m) = 1, so f = veff - E
            for k, E in enumerate(spec.energies):
                assert E > veff[-1]  # every demo level is a box state
                tol = 1e-10 * max(1.0, abs(E))
                assert (matched_phase(veff - (E - tol), h * h) < (k + 1) * math.pi
                        < matched_phase(veff - (E + tol), h * h)), (l, k)

    def test_end_phase_rises_through_demo_levels(self):
        # general.cfg at l = 1: hbar^2/(2m) = 1 and r_max = 40, so f = veff - E
        # and the energy unit is 1; above the potential at r_max every probe
        # matches at n - 2
        cfg = parse_config((REPO / "configs" / "general.cfg").read_text())
        veff = effective_potential(cfg.params, cfg.consts, 1, cfg.grid.points())
        h = cfg.grid.h

        def phase(E):
            return matched_phase(veff - E, h * h)

        energies = np.linspace(max(veff[-2:]), veff[-1] + 0.5, 4001)[1:]
        phases = np.array([phase(E) for E in energies])
        assert np.all(np.diff(phases) >= 0.0)
        assert phases[-1] > 8.0 * math.pi  # passes (k + 1) pi for 8 levels
        spec = numerov_spectrum(veff, mapped(cfg.consts, cfg.grid, cfg.params), 3)
        for k, E in enumerate(spec.energies):
            tol = 1e-10 * max(1.0, abs(E))
            assert phase(E - tol) < (k + 1) * math.pi < phase(E + tol), k

    def test_phase_rises_across_the_potential_at_r_max(self):
        # FAULT at l = 0 from the bound level -30.78 past the box level
        # -27.994: below the potential at r_max (-28) the probes match in
        # the well, above it at n - 2. Theta rises wherever m stays; where m
        # changes it may fall, by less than pi, and floor(Theta/pi) is the
        # matrix-Numerov count of levels below E whatever m
        grid = RadialGrid(1e-6, 40.0, 2000)
        veff = eval_potential(FAULT, grid.points())
        h = grid.h
        energies = np.linspace(veff[-1] - 3.0, veff[-1] + 0.5, 2001)
        matched = np.array([oracle._match_point(veff - E) for E in energies])
        phases = np.array([matched_phase(veff - E, h * h) for E in energies])
        assert {grid.n_points - 2, 7} <= set(matched.tolist())
        rise = np.diff(phases)
        assert np.all(rise[matched[1:] == matched[:-1]] >= 0.0)
        assert np.all(rise > -math.pi)
        counts = (phases // math.pi).astype(int)
        assert np.all(np.diff(counts) >= 0) and counts[0] == 1 and counts[-1] > 3
        for E, count in zip(energies[::100], counts[::100]):
            assert matrix_numerov_below(veff, CONSTS.s, h, E) == count, E

    # a spike in the box's last points, with level 0 the spike's own bound
    # state. The box levels' probes match at n - 2. With the spike at the
    # second-last point alone, h^2 |f| > 6 there above E = -6e6, so the
    # recurrence does not turn at m and theta is pi/2; over the last three
    # points it turns, but Theta is far from linear in x, and bisection
    # steps keep regula falsi converging there
    @pytest.mark.parametrize("spike, depth, phased", [
        (slice(-2, -1), -3e7, False), (slice(-3, None), -1e7, True)],
        ids=["unresolved", "distorted"])
    def test_end_spike_box_levels_on_dirichlet_roots(self, monkeypatch, spike, depth, phased):
        veff = box(BOX_GRID)
        veff[spike] = depth
        h = BOX_GRID.h
        turning = []
        real_phase = oracle._matched_phase

        def recording(f, h2, m):
            if f[1] < 0.0:  # E > 0, as f = veff - E and r_min's neighbour is in the box
                q = h2 * f[m] / 12.0
                turning.append(-1.0 < (1.0 + 5.0 * q) / (1.0 - q) < 1.0)
            return real_phase(f, h2, m)

        with monkeypatch.context() as m:
            m.setattr(oracle, "_matched_phase", recording)
            spec = numerov_spectrum(veff, mapped(CONSTS, BOX_GRID), 3)
        assert len(turning) > 10 and set(turning) == {phased}
        assert node_counts(spec) == [0, 1, 2]
        assert spec.energies[0] < -1e6
        for k, E in enumerate(spec.energies):
            if k:
                assert E == pytest.approx((k * math.pi) ** 2, rel=3e-3)
            tol = 1e-10 * max(1600.0, abs(E))  # unit (40/r_max)^2
            assert (matched_phase(veff - (E - tol), h * h) < (k + 1) * math.pi
                    < matched_phase(veff - (E + tol), h * h)), k

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
        exact = [surrogate_level(dimensionless(FAULT, CONSTS), n, 0) for n in range(3)]
        assert [lv.bound for lv in exact] == [True, True, False]
        assert exact[0].energy == pytest.approx(-53.0, rel=1e-15)
        assert exact[1].energy == pytest.approx(-30.7778, abs=1e-4)

        grid = RadialGrid(1e-6, 40.0, n_points)
        solve = numerov_spectrum if solver == "numerov" else fd_spectrum
        spec = solve(eval_potential(FAULT, grid.points()), mapped(CONSTS, grid), 2)
        for k, bound in enumerate(self.DEEP_ERROR_BOUNDS[solver, n_points]):
            assert abs(spec.energies[k] - exact[k].energy) <= bound, k

    # the barrier wells of configs/barrier_well.cfg (alpha = 0.7) and
    # barrier_well_alpha1.cfg with the cosech^2 surrogate barrier:
    # (config, solver, l, n_points) -> per surrogate-bound level n, 1.1
    # times the measured relative error
    BARRIER_WELL_BOUNDS = {
        ("barrier_well", "fd", 0, 2000): (1.1 * 9.284e-4, 1.1 * 3.210e-4),
        ("barrier_well", "fd", 0, 8000): (1.1 * 5.749e-5, 1.1 * 1.987e-5),
        ("barrier_well", "fd", 1, 2000): (1.1 * 1.203e-4,),
        ("barrier_well", "fd", 1, 8000): (1.1 * 7.527e-6,),
        ("barrier_well", "fd", 2, 2000): (1.1 * 2.001e-6,),
        ("barrier_well", "fd", 2, 8000): (1.1 * 1.249e-7,),
        ("barrier_well", "numerov", 0, 2000): (1.1 * 2.333e-4, 1.1 * 6.485e-5),
        ("barrier_well", "numerov", 0, 8000): (1.1 * 3.701e-6, 1.1 * 1.026e-6),
        ("barrier_well", "numerov", 1, 2000): (1.1 * 1.244e-6,),
        ("barrier_well", "numerov", 1, 8000): (1.1 * 5.351e-9,),
        ("barrier_well", "numerov", 2, 2000): (1.1 * 1.239e-9,),
        ("barrier_well_alpha1", "fd", 0, 2000): (1.1 * 1.127e-3,),
        ("barrier_well_alpha1", "fd", 0, 8000): (1.1 * 8.036e-5,),
        ("barrier_well_alpha1", "fd", 1, 2000): (1.1 * 9.672e-6,),
        ("barrier_well_alpha1", "fd", 1, 8000): (1.1 * 6.046e-7,),
        ("barrier_well_alpha1", "numerov", 0, 2000): (1.1 * 7.030e-4,),
        ("barrier_well_alpha1", "numerov", 0, 8000): (1.1 * 3.328e-5,),
        ("barrier_well_alpha1", "numerov", 1, 2000): (1.1 * 1.878e-7,),
        ("barrier_well_alpha1", "numerov", 1, 8000): (1.1 * 1.317e-9,),
    }

    @pytest.mark.parametrize("name, solver, l, n_points", BARRIER_WELL_BOUNDS)
    def test_barrier_well_levels_pinned_to_exact(self, name, solver, l, n_points):
        # every surrogate-bound (n, l) of the config, and no other, is pinned
        bounds = self.BARRIER_WELL_BOUNDS[name, solver, l, n_points]
        params, consts, grid, veff = surrogate_well(name, l, n_points)
        exact = [surrogate_level(dimensionless(params, consts), n, l) for n in range(3)]
        assert [lv.bound for lv in exact] == [n < len(bounds) for n in range(3)]
        solve = numerov_spectrum if solver == "numerov" else fd_spectrum
        spec = solve(veff, mapped(consts, grid, params), 3)
        assert node_counts(spec) == [0, 1, 2]
        for lv, rel in zip(exact, bounds):
            assert abs(spec.energies[lv.n] - lv.energy) <= rel * abs(lv.energy), lv.n

    # with the cosech^2 barrier, level 1 at l = 1 (-28.136) is bound just
    # below the asymptote -28; each budget is 1.1 x the measured sweeps
    # (22, 22, 22, 22, 20, 21), and the ids keep the looser budgets of the
    # window that doubled up from the floor
    @pytest.mark.parametrize("l, n_points, budget, approximate", [
        (0, 2000, 1.1 * 22, False), (0, 8000, 1.1 * 22, False), (1, 2000, 1.1 * 22, False),
        (1, 8000, 1.1 * 22, False), (1, 2000, 1.1 * 20, True), (1, 8000, 1.1 * 21, True)],
        ids=["0-2000-40", "0-8000-40", "1-2000-50", "1-8000-50",
             "csch2-1-2000-40", "csch2-1-8000-40"])
    def test_deep_level_sweep_budget(self, monkeypatch, l, n_points, budget, approximate):
        # sweeps are counted as grid points swept over n_points
        grid = RadialGrid(1e-6, 40.0, n_points)
        veff = effective_potential(FAULT, CONSTS, l, grid.points(), approximate=approximate)
        spec, swept = swept_numerov(monkeypatch, veff, CONSTS, grid)
        assert node_counts(spec) == [0, 1, 2]
        assert swept / n_points <= budget

    def test_window_note_on_fault(self):
        # the window ends 1e-6 unit (the unit is 1 here) below the lower of
        # the last two samples, -28 at l = 0 and -28 + 2/40^2 at l = 1; at
        # 1e-2 units below them the notes would read -28.01 and -28.0088
        grid = RadialGrid(1e-6, 40.0, 2000)
        for l, n_states, window in ((0, 2, "[-100.931, -28]"), (1, 1, "[-53.3262, -27.9988]")):
            veff = effective_potential(FAULT, CONSTS, l, grid.points())
            spec = numerov_spectrum(veff, mapped(CONSTS, grid, FAULT), n_states)
            assert spec.notes == (f"window auto-selected: {window}",), l

    # (effective potential of r, grid, the ground level's match point or
    # None); V = r^2/16 rises from the origin, so the deepest point of its
    # allowed run, where its levels match, is r_1
    MATCHED = {
        **{name: (functools.partial(effective_potential, params, CONSTS, l),
                  RadialGrid(1e-6, 40.0 / params.alpha, n_points), None)
           for name, (params, l, n_points) in WELLS.items()},
        "oscillator m=1": (lambda r: r * r / 16.0, RadialGrid(1e-6, 40.0, 2000), 1),
    }

    @pytest.mark.parametrize("name", MATCHED)
    def test_matched_mismatch_root(self, name):
        # every level whose r_max is classically forbidden sits where the
        # matched phase passes (k + 1) pi, within the level tolerance
        potential, grid, ground_match = self.MATCHED[name]
        # hbar^2/(2m) = 1, so f = veff - E
        veff = potential(grid.points())
        h = grid.h
        spec = numerov_spectrum(veff, mapped(CONSTS, grid), 3)
        if ground_match is not None:
            assert oracle._match_point(veff - spec.energies[0]) == ground_match
        deep = [(k, E) for k, E in enumerate(spec.energies) if veff[-1] > E]
        assert deep
        for k, E in deep:
            tol = 1e-10 * max(1.0, abs(E))
            assert (matched_phase(veff - (E - tol), h * h) < (k + 1) * math.pi
                    < matched_phase(veff - (E + tol), h * h)), E

    def test_floor_with_nodes_is_resolution_error(self):
        params = family_params(a=1.0, V0=1000.0)
        coarse, fine = RadialGrid(1e-6, 40.0, 2000), RadialGrid(1e-6, 40.0, 8000)
        for l in range(3):
            with pytest.raises(ResolutionError, match="n_points = 2000"):
                numerov_spectrum(effective_potential(params, CONSTS, l, coarse.points()),
                                 mapped(CONSTS, coarse, params), 3)
        spec = numerov_spectrum(eval_potential(params, fine.points()),
                                mapped(CONSTS, fine, params), 3)
        assert node_counts(spec) == [0, 1, 2]


class TestSurrogateLevels:
    """Both oracles with the cosech^2 surrogate barrier, which makes the
    problem Eckart at every l, on FAULT (configs/eckart_bound.cfg), the two
    barrier wells and two seeded draws, pinned to the exact levels and
    states of `exact` where the bound flag of surrogate_level is set."""

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
    }

    @pytest.mark.parametrize("solver, l, n_points", REL_ERROR_BOUNDS)
    def test_bound_levels_pinned_to_exact(self, solver, l, n_points):
        # at l = 2 the formula's n = 1 value, -29.37, lies below the
        # asymptote -28 yet is no level: only the bound flag admits one
        bounds = self.REL_ERROR_BOUNDS[solver, l, n_points]
        exact = [surrogate_level(dimensionless(FAULT, CONSTS), n, l) for n in range(3)]
        assert [lv.bound for lv in exact] == [n < len(bounds) for n in range(3)]
        grid = RadialGrid(1e-6, 40.0, n_points)
        veff = effective_potential(FAULT, CONSTS, l, grid.points(), approximate=True)
        solve = numerov_spectrum if solver == "numerov" else fd_spectrum
        spec = solve(veff, mapped(CONSTS, grid, FAULT), 3)
        assert node_counts(spec) == [0, 1, 2]
        for lv, rel in zip(exact, bounds):
            assert abs(spec.energies[lv.n] - lv.energy) <= rel * abs(lv.energy), lv.n

    # (config, l, n_points) -> per surrogate-bound level n, 1.1 times the
    # measured relative error of the matrix-Numerov eigenvalue E_H
    ROOT_ERROR_BOUNDS = {
        ("eckart_bound", 0, 2000): (1.1 * 4.100e-4, 1.1 * 1.549e-4),
        ("eckart_bound", 0, 8000): (1.1 * 6.809e-6, 1.1 * 2.564e-6),
        ("eckart_bound", 1, 2000): (1.1 * 2.754e-6, 1.1 * 3.729e-7),
        ("eckart_bound", 1, 8000): (1.1 * 1.200e-8, 1.1 * 1.620e-9),
        ("eckart_bound", 2, 2000): (1.1 * 8.707e-9,),
        ("eckart_bound", 2, 8000): (1.1 * 3.383e-11,),
        ("barrier_well", 0, 2000): (1.1 * 2.333e-4, 1.1 * 6.485e-5),
        ("barrier_well", 0, 8000): (1.1 * 3.701e-6, 1.1 * 1.026e-6),
        ("barrier_well", 1, 2000): (1.1 * 1.244e-6,),
        ("barrier_well", 1, 8000): (1.1 * 5.341e-9,),
        ("barrier_well", 2, 2000): (1.1 * 1.251e-9,),
        ("barrier_well", 2, 8000): (1.1 * 5.274e-11,),
        ("barrier_well_alpha1", 0, 2000): (1.1 * 7.030e-4,),
        ("barrier_well_alpha1", 0, 8000): (1.1 * 3.328e-5,),
        ("barrier_well_alpha1", 1, 2000): (1.1 * 1.878e-7,),
        ("barrier_well_alpha1", 1, 8000): (1.1 * 1.329e-9,),
    }

    @pytest.mark.parametrize("name, l, n_points", ROOT_ERROR_BOUNDS)
    def test_dirichlet_roots_pinned_to_exact(self, name, l, n_points):
        # the matrix-Numerov eigenvalue E_H, the Dirichlet root of the
        # recurrence, carries the discretisation error alone: each
        # surrogate-bound level's E_H is pinned to the exact level, and
        # Numerov's level to E_H at its 1e-10 stop. At l = 2 and 8000 points
        # the discretisation error lies below that stop, so only E_H sees it
        bounds = self.ROOT_ERROR_BOUNDS[name, l, n_points]
        params, consts, grid, veff = surrogate_well(name, l, n_points)
        exact = [surrogate_level(dimensionless(params, consts), n, l) for n in range(3)]
        assert [lv.bound for lv in exact] == [n < len(bounds) for n in range(3)]
        spec = numerov_spectrum(veff, mapped(consts, grid, params), 3)
        for lv, rel in zip(exact, bounds):
            root = matrix_numerov_level(veff, consts.s, grid.h, lv.energy)
            assert abs(root - lv.energy) <= rel * abs(lv.energy), lv.n
            assert abs(spec.energies[lv.n] - root) <= 1e-10 * max(1.0, abs(root)), lv.n

    @pytest.mark.parametrize("n_points", [3995, 8010])
    def test_excited_bound_state_is_a_matched_sweep(self, n_points):
        # level 1 at l = 1 (-28.136) is bound below the asymptote -28; the
        # outward sweep there grows past the level and crosses zero near
        # r_max, which read [0, 2, 2] when the state was that sweep
        grid = RadialGrid(1e-6, 40.0, n_points)
        veff = effective_potential(FAULT, CONSTS, 1, grid.points(), approximate=True)
        spec = numerov_spectrum(veff, mapped(CONSTS, grid, FAULT), 3)
        assert spec.energies[1] < veff[-1]
        assert node_counts(spec) == [0, 1, 2]

    # two seeded_params draws, each with one surrogate-bound level at l = 0
    # and at l = 1 and none at l = 2, on the default grid [1e-6, 40/alpha]
    SEEDED = (lambda rng: (seeded_params(rng), seeded_params(rng)))(random.Random(33))
    # (draw, l, n_points) -> 1.1 times the measured relative error of FD
    # and Numerov at level 0; where Numerov's nears its 1e-10 stop (None),
    # the measured error of its Dirichlet root E_H instead
    SEEDED_BOUNDS = {
        (0, 0, 2000): (1.1 * 2.969e-4, 1.1 * 6.662e-5),
        (0, 0, 8000): (1.1 * 1.849e-5, 1.1 * 1.273e-6),
        (0, 1, 2000): (1.1 * 8.569e-6, 1.1 * 4.800e-8),
        (0, 1, 8000): (1.1 * 5.356e-7, None),
        (1, 0, 2000): (1.1 * 1.177e-4, 1.1 * 5.306e-6),
        (1, 0, 8000): (1.1 * 7.355e-6, 1.1 * 4.328e-8),
        (1, 1, 2000): (1.1 * 6.899e-6, 1.1 * 1.380e-8),
        (1, 1, 8000): (1.1 * 4.310e-7, None),
    }
    SEEDED_ROOT_ERRORS = {(0, 1, 8000): 1.1 * 2.189e-10, (1, 1, 8000): 1.1 * 5.372e-11}

    @pytest.mark.parametrize("draw, l, n_points", SEEDED_BOUNDS)
    def test_seeded_levels_pinned_to_exact(self, draw, l, n_points):
        params = self.SEEDED[draw]
        exact = [surrogate_level(dimensionless(params, CONSTS), n, l) for n in range(3)]
        assert [lv.bound for lv in exact] == [True, False, False]
        E0 = exact[0].energy
        grid = RadialGrid(1e-6, 40.0 / params.alpha, n_points)
        veff = effective_potential(params, CONSTS, l, grid.points(), approximate=True)
        fd_rel, numerov_rel = self.SEEDED_BOUNDS[draw, l, n_points]
        E_fd = fd_spectrum(veff, mapped(CONSTS, grid, params), 3).energies[0]
        assert abs(E_fd - E0) <= fd_rel * abs(E0)
        E = numerov_spectrum(veff, mapped(CONSTS, grid, params), 3).energies[0]
        if numerov_rel is None:
            root = matrix_numerov_level(veff, CONSTS.s, grid.h, E0)
            assert abs(root - E0) <= self.SEEDED_ROOT_ERRORS[draw, l, n_points] * abs(E0)
            assert abs(E - root) <= 1e-10 * abs(E)
        else:
            assert abs(E - E0) <= numerov_rel * abs(E0)

    def test_seeded_draws_bind_nothing_at_l2(self):
        for params in self.SEEDED:
            m = dimensionless(params, CONSTS)
            assert not any(surrogate_level(m, n, 2).bound for n in range(3))

    # (config, solver, n_points) -> 1.1 times the largest measured fidelity
    # loss 1 - |<u|w>| and pointwise error max |u - w| over the config's
    # surrogate-bound states
    STATE_ERROR_BOUNDS = {
        ("eckart_bound", "fd", 2000): (1.1 * 1.036e-5, 1.1 * 5.938e-3),
        ("eckart_bound", "fd", 8000): (1.1 * 3.966e-8, 1.1 * 3.680e-4),
        ("eckart_bound", "numerov", 2000): (1.1 * 6.477e-7, 1.1 * 3.691e-3),
        ("eckart_bound", "numerov", 8000): (1.1 * 2.773e-10, 1.1 * 1.936e-4),
        ("barrier_well", "fd", 2000): (1.1 * 6.254e-6, 1.1 * 3.353e-3),
        ("barrier_well", "fd", 8000): (1.1 * 2.407e-8, 1.1 * 2.078e-4),
        ("barrier_well", "numerov", 2000): (1.1 * 2.713e-7, 1.1 * 1.942e-3),
        ("barrier_well", "numerov", 8000): (1.1 * 2.980e-9, 1.1 * 1.026e-4),
        ("barrier_well_alpha1", "fd", 2000): (1.1 * 3.715e-6, 1.1 * 3.927e-3),
        ("barrier_well_alpha1", "fd", 8000): (1.1 * 1.907e-8, 1.1 * 2.794e-4),
        ("barrier_well_alpha1", "numerov", 2000): (1.1 * 1.535e-6, 1.1 * 3.467e-3),
        ("barrier_well_alpha1", "numerov", 8000): (1.1 * 3.779e-9, 1.1 * 3.286e-4),
    }
    BOUND_STATES = {"eckart_bound": 5, "barrier_well": 4, "barrier_well_alpha1": 2}

    @pytest.mark.parametrize("name, solver, n_points", STATE_ERROR_BOUNDS)
    def test_bound_states_match_exact(self, name, solver, n_points):
        # u is the exact Eckart state (exact.eckart_state), trapezoid-
        # normalized on r and signed by (-1)^n, so that its lobe nearest the
        # origin is positive
        loss_bound, point_bound = self.STATE_ERROR_BOUNDS[name, solver, n_points]
        solve = numerov_spectrum if solver == "numerov" else fd_spectrum
        checked = 0
        for l in range(3):
            params, consts, grid, veff = surrogate_well(name, l, n_points)
            r, m = grid.points(), dimensionless(params, consts)
            spec = solve(veff, mapped(consts, grid, params), 2)
            for n in range(2):
                if not surrogate_level(m, n, l).bound:
                    continue
                u = eckart_state(m, n, l)(r).real
                u = (-1) ** n * u / math.sqrt(float(np.trapezoid(u * u, r)))
                w = spec.wavefunctions[n]
                assert 1.0 - abs(float(np.trapezoid(u * w, r))) <= loss_bound, (n, l)
                assert np.max(np.abs(u - w)) <= point_bound, (n, l)
                assert spec.node_counts[n] == n
                assert w[np.abs(w) > 1e-8 * np.max(np.abs(w))][0] > 0.0
                checked += 1
        assert checked == self.BOUND_STATES[name]

    @pytest.mark.parametrize("mu", [0.05, 0.5, 2.0, 20.0])
    def test_fd_length_scaling(self, monkeypatch, mu):
        # r -> r / mu: alpha -> mu alpha, grid -> grid / mu and V -> mu^2 V
        # give the same matrix times mu^2, so every level times mu^2, to
        # FD's documented 2.0e-13 (measured 3.8e-15); Numerov counts
        # energies in s (40/r_max)^2, so its levels follow too (measured
        # 5.0e-11)
        fault = dataclasses.replace(FAULT, V0=FAULT.V0 * mu * mu, V2=mu * mu, alpha=mu)
        grid = RadialGrid(1e-6, 40.0, 2000)
        small = RadialGrid(1e-6 / mu, 40.0 / mu, 2000)
        for l in (0, 1):
            veff_ref = effective_potential(FAULT, CONSTS, l, grid.points())
            veff = effective_potential(fault, CONSTS, l, small.points())
            ref = fd_spectrum(veff_ref, mapped(CONSTS, grid), 3)
            spec = fd_spectrum(veff, mapped(CONSTS, small), 3)
            assert node_counts(spec) == node_counts(ref) == [0, 1, 2]
            for e, e_ref in zip(spec.energies, ref.energies, strict=True):
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


def patch_lapack(monkeypatch, **fakes):
    """Make oracle._lapack() hand out `fakes` in place of the routines they
    name, and scipy's own routines otherwise."""
    routines = {name: getattr(lapack, name)
                for name in ("dstebz", "dstein", "dsyevd", "dtbtrs", "dgttrf", "dgttrs")}
    module = types.SimpleNamespace(**(routines | fakes))
    monkeypatch.setattr(oracle, "_lapack", lambda: module)


def fd_with_matrix(monkeypatch, veff, grid, n_states):
    """fd_spectrum's result and the (diag, off) it handed to LAPACK."""
    seen = []

    def recording(diag, off, *args):
        seen.append((diag.copy(), off.copy()))
        return lapack.dstebz(diag, off, *args)

    patch_lapack(monkeypatch, dstebz=recording)
    return fd_spectrum(veff, mapped(CONSTS, grid), n_states), seen[0]


def matrix_numerov_bands(veff, s, h, E):
    """B (H - E) B in upper band storage (scipy.linalg.eig_banded), for the
    matrix-Numerov Hamiltonian H = (s/h^2) B^-1 K + diag(veff[1:-1]) with
    K = tridiag(-1, 2, -1) and B = tridiag(1, 10, 1)/12 = I - K/12
    (Pillai, Goglio and Walker, Am. J. Phys. 80, 1017, 2012). With
    Dirichlet ends the Numerov recurrence from (0, h) ends on
    u(r_max) = 0 exactly at the eigenvalues of H, which is symmetric since
    K and B commute. The product, (s/h^2)(K - K^2/12) + B diag(veff - E) B,
    is pentadiagonal, and congruent to H - E."""
    t = s / (h * h)
    w = (np.asarray(veff[1:-1], dtype=float) - E) / 144.0
    band = np.zeros((3, w.size))
    band[0, 2:] = w[1:-1] - t / 12.0
    band[1, 1:] = 10.0 * (w[:-1] + w[1:]) - t * 8.0 / 12.0
    band[2] = 100.0 * w + t * 1.5
    band[2, [0, -1]] += t / 12.0
    band[2, 1:] += w[:-1]
    band[2, :-1] += w[1:]
    return band


def matrix_numerov_below(veff, s, h, E):
    """The number of matrix-Numerov eigenvalues below E: the negative
    inertia of B (H - E) B (Sylvester), counted by LAPACK dsbevx."""
    return eig_banded(matrix_numerov_bands(veff, s, h, E), eigvals_only=True,
                      select="v", select_range=(-np.inf, 0.0)).size


def matrix_numerov_level(veff, s, h, guess):
    """The matrix-Numerov eigenvalue E_H nearest guess, by Rayleigh-quotient
    iteration: each step solves (H - E) x = y as the tridiagonal
    ((s/h^2) K + B diag(veff - E)) x = B y. It stops once a step moves E
    by less than 1e-13 (|E| + s/h^2), above the quotient's roundoff."""
    t = s / (h * h)
    d = np.asarray(veff[1:-1], dtype=float)
    b_band = np.outer([1.0, 10.0, 1.0], np.ones(d.size)) / 12.0

    def times_b(x):
        y = 10.0 * x
        y[1:] += x[:-1]
        y[:-1] += x[1:]
        return y / 12.0

    def times_h(x):
        kx = 2.0 * x
        kx[1:] -= x[:-1]
        kx[:-1] -= x[1:]
        return t * solve_banded((1, 1), b_band, kx) + d * x

    x, E = np.ones(d.size), guess
    for _ in range(20):
        w = (d - E) / 12.0
        shifted = np.zeros((3, d.size))
        shifted[0, 1:] = w[1:] - t
        shifted[1] = 10.0 * w + 2.0 * t
        shifted[2, :-1] = w[:-1] - t
        x = solve_banded((1, 1), shifted, times_b(x))
        x /= np.linalg.norm(x)
        last, E = E, float(x @ times_h(x))
        if abs(E - last) <= 1e-13 * (abs(E) + t):
            return E
    raise AssertionError(f"Rayleigh-quotient iteration from {guess} not converged")


class TestMatrixNumerov:
    """Numerov's levels against its own discrete eigenproblem: level k is
    the k-th eigenvalue E_H of the matrix-Numerov Hamiltonian to
    1e-10 max(unit, |E|), so the reference sees where the solver stops
    (measured at most 5.1e-11) and shares no code with it."""

    GENERAL = parse_config((REPO / "configs" / "general.cfg").read_text())
    # FAULT with s = hbar^2/2m = 0.1 has h^2 f/12 > 1 at r_1, where the
    # barrier sample is large, so no probe may match next to the origin
    CASES = {f"{name} l{l}{' csch2' if approximate else ''}":
             (functools.partial(effective_potential, params, consts, l, approximate=approximate),
              consts, RadialGrid(1e-6, 40.0 / params.alpha, 1000))
             for name, params, consts, barriers in (
                 ("general", GENERAL.params, GENERAL.consts, (False, True)),
                 ("fault", FAULT, CONSTS, (False, True)),
                 ("fault mass5", FAULT, PhysicalConstants(hbar=1.0, mass=5.0), (False,)))
             for l in range(3) for approximate in barriers}

    def spike(where, depth):
        def potential(r):
            veff = np.zeros(r.size)
            veff[where] = depth
            return veff
        return potential

    # the two end-spike fixtures of TestNumerovLevels, on their own grid
    CASES["end spike unresolved"] = (spike(slice(-2, -1), -3e7), CONSTS, BOX_GRID)
    CASES["end spike distorted"] = (spike(slice(-3, None), -1e7), CONSTS, BOX_GRID)
    del spike

    @pytest.mark.parametrize("name", CASES)
    def test_levels_are_discrete_eigenvalues(self, name):
        # fault l1 csch2 holds level 1 (-28.137), bound just below the
        # asymptote -28 while its window bracket reaches above it
        potential, consts, grid = self.CASES[name]
        veff = potential(grid.points())
        unit = consts.s * (40.0 / grid.r_max) ** 2
        spec = numerov_spectrum(veff, mapped(consts, grid), 3)
        for k, E in enumerate(spec.energies):
            tol = 1e-10 * max(unit, abs(E))
            assert matrix_numerov_below(veff, consts.s, grid.h, E - tol) == k, (name, k)
            assert matrix_numerov_below(veff, consts.s, grid.h, E + tol) == k + 1, (name, k)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
class TestFdAccuracy:
    """FD levels against a long-double Sturm bisection of the same matrix."""


    def test_fault_levels(self, monkeypatch):
        # worst relative error measured 8.2e-16 (3.7 eps); dstebz alone,
        # bisecting to 2 ulp, is off by up to 8.7e-15 (39 eps) here
        grid = RadialGrid(1e-6, 40.0, 2000)
        worst = 0.0
        for l in (0, 1):
            spec, matrix = fd_with_matrix(
                monkeypatch, effective_potential(FAULT, CONSTS, l, grid.points()), grid, 3)
            ref = sturm_levels(*matrix, 3)
            for e, e_ref in zip(spec.energies, ref, strict=True):
                worst = max(worst, float(abs(e - e_ref) / max(1.0, abs(e_ref))))
        assert worst <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("scale", [1e-6, 1e8])
    def test_energy_unit(self, monkeypatch, scale):
        # hbar^2/2m and every V coefficient times `scale` multiply T, and so
        # every level, by `scale`; the brackets must follow (measured
        # agreement 6.5e-15 relative). Numerov's window and tolerances
        # scale with its unit s (40/r_max)^2 (measured 5.0e-11)
        fault = dataclasses.replace(FAULT, V0=FAULT.V0 * scale, V2=scale)
        consts = PhysicalConstants(hbar=1.0, mass=0.5 / scale)
        grid = RadialGrid(1e-6, 40.0, 2000)
        r = grid.points()
        for l in (0, 1):
            veff_ref = effective_potential(FAULT, CONSTS, l, r)
            veff = effective_potential(fault, consts, l, r)
            ref = fd_spectrum(veff_ref, mapped(CONSTS, grid), 3)
            spec = fd_spectrum(veff, mapped(consts, grid), 3)
            assert node_counts(spec) == node_counts(ref) == [0, 1, 2]
            for e, e_ref in zip(spec.energies, ref.energies, strict=True):
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
        spec = fd_spectrum(eval_potential(cfg.params, cfg.grid.points()),
                           mapped(cfg.consts, cfg.grid, cfg.params), 3)
        r = cfg.grid.points()[1:-1]
        t = 1.0 / cfg.grid.h**2
        ref = eigh_tridiagonal(2.0 * t + eval_potential(cfg.params, r), np.full(r.size - 1, -t),
                               eigvals_only=True, select="i", select_range=(0, 3))
        energies = list(spec.energies)
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
        energies = list(spec.energies)
        assert all(e1 < e2 for e1, e2 in zip(energies, energies[1:]))
        for e, e_ref in zip(energies, ref, strict=True):
            assert abs(e - float(e_ref)) <= 1e-3 * split
        assert node_counts(spec) == list(range(n_states))

    @pytest.mark.parametrize("height", [1.24, 1.27, 1.28])
    def test_block_grows_past_a_close_level(self, monkeypatch, height):
        # a double well whose level 3 lies 1.62, 1.26 and 1.16 brackets above
        # level 2: the block must grow to hold it, or it stays mixed into the
        # top vector (measured 8.7e-15, 9.0e-15 and 8.9e-15 relative; with a
        # gap of 1 bracket, 2.5e-9, 1.6e-10 and 1.3e-10)
        grid = RadialGrid(1e-6, 40.0, 2000)
        veff = 4.0 * height * (((grid.points() - 20.0) / 8.0) ** 2 - 1.0) ** 2
        spec, matrix = fd_with_matrix(monkeypatch, veff, grid, 3)
        ref = float(sturm_levels(*matrix, 3)[2])
        assert abs(spec.energies[2] - ref) <= 1e-13 * abs(ref)
        assert node_counts(spec) == [0, 1, 2]

    # deep-well centre D -> node counts of the lowest six levels
    OTHER_WELL_NODES = {20.0: [0, 1, 2, 3, 4, 5], 24.0: [0, 1, 2, 3, 0, 1],
                        28.0: [0, 1, 2, 3, 0, 1]}

    @pytest.mark.parametrize("solver", [fd_spectrum, numerov_spectrum])
    @pytest.mark.parametrize("centre", OTHER_WELL_NODES)
    def test_nodes_in_the_other_well_count(self, centre, solver):
        # square wells of -6 on |r - 8| < 3 and -10 on |r - D| < 3: levels 4
        # and 5 lie in the shallow well. At D = 20 their lobes in the deep
        # one, at 1.7e-7 and 7.9e-7 of the maximum, hold 4 sign changes
        # each; a node threshold of 1e-5 reads (0, 1, 2, 3, 0, 1). The k-th
        # vector of a tridiagonal T with negative off-diagonal has k sign
        # changes. At D = 24 and 28 those lobes fall below the 1e-8
        # threshold (1.1e-11 and 7.2e-16 for FD), and both solvers read
        # (0, 1, 2, 3, 0, 1)
        grid = RadialGrid(1e-6, 40.0, 2000)
        r = grid.points()
        veff = np.where(np.abs(r - 8.0) < 3.0, -6.0,
                        np.where(np.abs(r - centre) < 3.0, -10.0, 0.0))
        spec = solver(veff, mapped(PhysicalConstants(), grid), 6)
        assert node_counts(spec) == self.OTHER_WELL_NODES[centre]


class TestSpectrumStructure:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(StructureError):
            NumericSpectrum(
                method="FiniteDifference",
                energies=(2.0, 1.0),
                node_counts=(0, 1),
                wavefunctions=(),
                r=BOX_GRID.points(),
            )

    def test_wrong_shape_rejected(self):
        # one sample per grid point, no more and no fewer
        short = np.zeros(OSC_GRID.n_points - 1)
        for solver in (fd_spectrum, numerov_spectrum):
            with pytest.raises(DomainError, match="shape"):
                solver(short, mapped(CONSTS, OSC_GRID), 1)

    def test_nonfinite_sample_named(self):
        r = BOX_GRID.points()
        bad = np.where(np.abs(r - 0.5) < 0.01, np.nan, 0.0)
        for solver in (fd_spectrum, numerov_spectrum):
            with pytest.raises(SamplingError, match="non-finite") as info:
                solver(bad, mapped(CONSTS, BOX_GRID), 1)
            assert info.value.r == r[np.isnan(bad)][0]

    def test_too_many_states_rejected(self):
        with pytest.raises(DomainError):
            grid = RadialGrid(1e-9, 1.0, 100)
            fd_spectrum(box(grid), mapped(CONSTS, grid), 30)

    def test_zero_states(self):
        spec = fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 0)
        assert spec.energies == spec.node_counts == spec.wavefunctions == ()

    def test_near_origin_lobe_positive(self):
        # box level 1 has two mirror-image lobes whose extremes differ only
        # by roundoff, so a largest-component rule would pick its sign by chance
        specs = (fd_spectrum(oscillator(OSC_GRID), mapped(CONSTS, OSC_GRID), 3),
                 fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 2),
                 numerov_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 2))
        for spec in specs:
            for k, vec in enumerate(spec.wavefunctions):
                lobe = vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))]
                assert lobe[0] > 0.0, (spec.method, k)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        # a nonzero info, as from dstein where a vector fails to converge,
        # from dsyevd where the Ritz step's eigensolve does, or from dgttrf
        # where a pivot of the Numerov operator is exactly zero
        for solver, routine in ((fd_spectrum, "dstebz"), (fd_spectrum, "dstein"),
                                (fd_spectrum, "dsyevd"), (numerov_spectrum, "dgttrf"),
                                (numerov_spectrum, "dgttrs")):
            def failing(*args, routine=routine):
                return (*getattr(lapack, routine)(*args)[:-1], 1)

            patch_lapack(monkeypatch, **{routine: failing})
            with pytest.raises(ConvergenceError) as info:
                solver(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 1)
            assert str(info.value) == f"{solver.__name__}: LAPACK {routine} failed with info = 1"

    def test_polluted_vector_is_convergence_error(self, monkeypatch):
        # a vector that is no eigenvector moves its level out of the bracket
        def polluted(*args):
            vecs, info = lapack.dstein(*args)
            vecs[:, 0] = np.random.default_rng(7).standard_normal(vecs.shape[0])
            vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
            return vecs, info

        patch_lapack(monkeypatch, dstein=polluted)
        with pytest.raises(ConvergenceError, match="left its bracket"):
            fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 2)

    def test_block_growth_is_bounded(self, monkeypatch):
        # with every level closer than the gap the block would hold the
        # whole spectrum; it stops at n_points/4
        monkeypatch.setattr(oracle, "_EIG_GAP", 1e15)
        with pytest.raises(ConvergenceError, match="closer than") as info:
            fd_spectrum(box(BOX_GRID), mapped(CONSTS, BOX_GRID), 1)
        assert "s/h^2" not in str(info.value)

    def test_vanishing_kinetic_coupling_is_named(self, monkeypatch):
        # alpha = 1e-30 puts h near 2e29, so s/h^2 = 9.9e-59 beside V near
        # 1499 and T is diag(V) to rounding: refused before any LAPACK call
        config = parse_config(
            "potential.b = 0.5\npotential.c = 3\npotential.d = 1000\npotential.V1 = 1000\n"
            "potential.V2 = 3\npotential.alpha = 1e-30\nconstants.hbar = 2\n"
            "grid.n_points = 200\n")
        veff = effective_potential(config.params, config.consts, 1, config.grid.points())
        monkeypatch.setattr(oracle, "_lapack", None)
        for n_states in (1, 3):
            with pytest.raises(EvaluationOverflowError) as info:
                fd_spectrum(veff, mapped(config.consts, config.grid, config.params), n_states)
            assert str(info.value) == (
                "fd_spectrum: s/h^2 = 9.9e-59 vanishes beside V "
                "(adding 2 s/h^2 changes no interior diagonal entry)")

    def test_overflowing_diagonal_is_named(self, monkeypatch):
        # s = 756.25 on [1e-160, 1e-150] at 400 points makes s/h^2 = 1.2e308,
        # 1.6e305 in units of s alpha^2, whose square overflows: refused
        # before any LAPACK call (dstebz fails with info = 4 where it squares
        # the coupling)
        config = parse_config(
            "potential.a = 0\npotential.b = 0\npotential.c = 0\npotential.d = 0\n"
            "constants.hbar = 27.5\nconstants.mass = 0.5\n"
            "grid.r_min = 1e-160\ngrid.r_max = 1e-150\ngrid.n_points = 400\n")
        veff = effective_potential(config.params, config.consts, 0, config.grid.points())

        def failing(*args):
            raise AssertionError("fd_spectrum called LAPACK")

        patch_lapack(monkeypatch, dstebz=failing, dstein=failing)
        with pytest.raises(EvaluationOverflowError) as info:
            fd_spectrum(veff, mapped(config.consts, config.grid, config.params), 1)
        assert str(info.value) == (
            "fd_spectrum: 2 s/h^2 + V overflows its Gershgorin bound, or 2 s/h^2 the square "
            "that LAPACK's Sturm counts take, in units of s alpha^2 (s/h^2 = 1.2e+308)")

    def test_vanishing_energy_unit_is_refused(self, monkeypatch):
        # s = 5e-301 and r_max = 1e13 make the unit s (40/r_max)^2 = 1e-323,
        # which vanishes beside the floor: the window could never widen, so
        # Numerov refuses after its floor probe instead of 200 more probes
        config = parse_config("constants.mass = 1e300\ngrid.r_max = 1e13\n"
                              "grid.n_points = 400\n")
        veff = effective_potential(config.params, config.consts, 0, config.grid.points())
        probes = [0]
        real_phase = oracle._matched_phase

        def counting(*args):
            probes[0] += 1
            return real_phase(*args)

        monkeypatch.setattr(oracle, "_matched_phase", counting)
        with pytest.raises(EvaluationOverflowError) as info:
            numerov_spectrum(veff, mapped(config.consts, config.grid, config.params), 1)
        assert str(info.value) == (
            "numerov_spectrum: the energy unit s (40/r_max)^2 = 1e-323 vanishes "
            "beside the window's floor 1.005")
        assert probes == [1]


class TestFallToCenter:
    def test_demo_is_safe_at_l_zero(self):
        demo = PotentialParams(a=1.0, b=0.01, c=2.0, d=2.0,
                               V0=1.0, V1=0.5, V2=0.02, alpha=1.0)
        # b V1 - c V2 = 0.005 - 0.04 = -0.035 < -1/4... check against -hbar^2/(8m)
        assert fall_to_center_unreliable(dimensionless(demo, CONSTS), 0) is False

    def test_strong_attractive_csch2_flagged(self):
        deep = PotentialParams(a=0.0, b=0.0, c=10.0, d=0.0,
                               V0=0.0, V1=0.0, V2=1.0, alpha=1.0)
        # c V2 = 10 => inverse-square coefficient -10 << -1/4
        assert fall_to_center_unreliable(dimensionless(deep, CONSTS), 0) is True

    def test_centrifugal_rescues(self):
        deep = PotentialParams(a=0.0, b=0.0, c=10.0, d=0.0,
                               V0=0.0, V1=0.0, V2=1.0, alpha=1.0)
        assert fall_to_center_unreliable(dimensionless(deep, CONSTS), 3) is False


class TestApproximationStudy:
    STUDY = PotentialParams(a=1.0, b=0.0, c=0.0, d=0.0,
                            V0=200.0, V1=0.0, V2=0.0, alpha=1.0)
    GRID = RadialGrid(1e-6, 4.0, 4000)

    def test_surrogate_softens_barrier(self):
        # alpha^2 csch^2 < 1/r^2, so the approximate level sits lower
        e_exact, e_approx = (
            fd_spectrum(effective_potential(self.STUDY, CONSTS, 1, self.GRID.points(),
                                            approximate=approx),
                        mapped(CONSTS, self.GRID, self.STUDY), 1).energies[0]
            for approx in (False, True))
        assert e_approx < e_exact
