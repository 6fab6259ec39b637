"""Independent numerical bound-state solvers for the radial equation.

Two deliberately different methods act as ground truth for the closed
forms: a finite-difference discretization, its levels bracketed by
Sturm-sequence bisection and closed by a Rayleigh-Ritz step on the
inverse-iteration vectors, and Numerov shooting, each level bracketed
and closed on the Dirichlet root by regula falsi on one phase: the
Pruefer angles of an outward and an inward sweep matched at one point.
Both return the lowest levels, level k as entry k, each state normalized
and signed the same way. Both solve

    -(hbar^2/2m) u'' + V_eff(r) u = E u

with Dirichlet ends on a uniform grid, entirely in real arithmetic, from
one sample of V_eff per grid point (potential.effective_potential).
Comparison against analytic levels is reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_REACH
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationOverflowError,
    ResolutionError,
    SamplingError,
    StructureError,
    require_index,
)

_NODE_EPS = 1e-8
# a Numerov block keeps values up to e^600 times its carry-ins (at most 1),
# well inside the float64 range (e^709) whatever the input
_MAX_VALUE = math.exp(600.0)
_SWEEP_FAILED = "numerov sweep: singular or non-finite recurrence step"
_MAX_BISECT = 200
# dstebz bisects each level to an interval this wide relative to the
# Gershgorin bound ||T|| of the operator, so the bracket scales with the
# energy unit and takes the same ~37 Sturm counts per level in any unit;
# its counts round at about eps ||T||, far inside it. The Rayleigh-Ritz
# step on the dstein vectors gives the digits, so the bracket only has to
# be narrow enough for inverse iteration to converge. The lowest three FD
# levels of the bundled, fixed and seeded inputs lie >= 6000 brackets apart.
_EIG_RTOL = 1e-11
# a level above the block must lie this many brackets above its top, or
# the block grows: closer, it stays mixed into the top vector, which the
# Ritz step cannot undo from outside the block (double well, top level
# off by 5e-11 relative at a 1.3-bracket split, 7e-12 at 2.2, 8e-15 at 4)
_EIG_GAP = 10.0


# the one place that names scipy; LAPACK loads on the first solve, so the
# commands that never solve (all but oracle and validate) start 0.3 s sooner
def _lapack():
    from scipy.linalg import lapack

    return lapack


def _fd_lapack(routine, *args):
    *out, info = getattr(_lapack(), routine)(*args)
    if info:
        raise ConvergenceError(f"fd_spectrum: LAPACK {routine} failed with info = {info}")
    return out


@dataclass
class NumericSpectrum:
    method: str  # 'FiniteDifference' or 'Numerov'
    energies: tuple  # level k at entry k
    node_counts: tuple  # of the state of each level
    wavefunctions: tuple  # per-level full-grid samples, L2-normalized
    r: np.ndarray
    notes: tuple = ()

    def __post_init__(self):
        es = self.energies
        if any(e2 <= e1 for e1, e2 in zip(es, es[1:])):
            raise StructureError(f"{self.method}: energies not strictly increasing: {list(es)}")

    @property
    def levels(self):
        """(k, energy, node count) per level, the view perfbench/spans.py reads."""
        return tuple(zip(range(len(self.energies)), self.energies, self.node_counts))


def _checked(veff, grid, n_states):
    """(grid.points(), veff as a contiguous float array), refused unless
    n_states is a non-negative integer below n_points/4 and veff holds one
    finite sample per grid point."""
    require_index(n_states, "n_states")
    if n_states and n_states >= grid.n_points / 4:
        raise DomainError(
            f"n_states = {n_states} too large for n_points = {grid.n_points} "
            "(need n_states < n_points/4)")
    r = grid.points()
    v = np.ascontiguousarray(veff, dtype=float)
    if v.shape != r.shape:
        raise DomainError(
            f"effective potential has shape {v.shape} for a grid of shape {r.shape}")
    bad = ~np.isfinite(v)
    if np.any(bad):
        raise SamplingError(
            f"potential non-finite at r = {float(r[bad][0])}", r=float(r[bad][0]))
    return r, v


def _finish_state(u, r):
    """(u, node count) of a full-grid state with u = 0 at both ends: u
    L2-normalized by the trapezoid rule and signed so that its first
    component above 1e-8 of the maximum amplitude, in the lobe nearest the
    origin, is positive; the nodes are the sign changes between those
    components."""
    u = u / math.sqrt(float(np.trapezoid(u * u, r)))
    mag = np.abs(u)
    sig = u[mag > _NODE_EPS * np.max(mag)]
    if sig.size and sig[0] < 0.0:
        u = -u
    return u, int(np.count_nonzero(np.diff(np.sign(sig))))


def _finished(method, energies, states, r, notes=()) -> NumericSpectrum:
    """The spectrum of levels `energies`, level k with the full-grid state
    states[k], each finished by _finish_state."""
    finished = [_finish_state(u, r) for u in states]
    return NumericSpectrum(method, tuple(energies), tuple(c for _, c in finished),
                           tuple(u for u, _ in finished), r, notes)


def fd_spectrum(veff, consts, grid, n_states) -> NumericSpectrum:
    """Lowest n_states levels by 3-point finite differences on veff, the
    effective potential at grid.points().

    LAPACK dstebz brackets each level of the symmetric tridiagonal
    operator T by Sturm-sequence bisection to a width tol of 1e-11 times
    its Gershgorin bound ||T||, and dstein gives a vector per bracket by
    inverse iteration. The levels are the Ritz values of T on the span V
    of those vectors (the eigenvalues of V^T T V) and the states the
    matching Ritz vectors (Parlett, The Symmetric Eigenvalue Problem,
    ch. 4). For separated levels a Ritz value is the Rayleigh quotient
    w + v^T (T - w) v at its bracket's midpoint w: one O(N) step in place
    of the further bisection down to 2 ulp, and more accurate, since the
    Sturm counts of bisection round at eps ||T||. Where two levels share a
    bracket the step also separates their mixed vectors. A level above the
    block within 10 tol of its top would stay mixed into the top vector,
    so the block grows until the next level lies further up, and the
    lowest n_states Ritz pairs are returned.

    A grid whose s/h^2 is not a positive finite number is refused
    (EvaluationOverflowError): h^2 = inf would leave T = diag(V), and
    h^2 = 0 a T of infinite entries. So is an s/h^2 that vanishes beside
    V, where adding 2 s/h^2 changes no interior diagonal entry: T is then
    diag(V) to rounding, and its eigenvalues are samples of V with
    nodeless vectors. So is a grid where the bound max|2 s/h^2 + V| + 2 s/h^2
    behind tol is not finite. ConvergenceError is raised for a nonzero LAPACK
    info, a level outside its bracket, |E - w| > tol (a polluted vector),
    and where the block would have to grow to n_points/4 levels. Each
    state is L2-normalized with the trapezoid rule and signed so that its
    lobe nearest the origin is positive.
    """
    r, veff = _checked(veff, grid, n_states)
    if n_states == 0:
        return _finished("FiniteDifference", (), (), r)
    h = grid.h
    t = consts.s / (h * h) if h * h else math.inf
    if not 0.0 < t < math.inf:
        raise EvaluationOverflowError(
            f"fd_spectrum: s/h^2 = {t!r} is not a positive finite number (h^2 = {h * h!r})")
    diag = 2.0 * t + veff[1:-1]
    if np.array_equal(diag, veff[1:-1]):
        raise EvaluationOverflowError(
            f"fd_spectrum: s/h^2 = {t:.3g} vanishes beside V "
            "(adding 2 s/h^2 changes no interior diagonal entry)")
    off = np.full(diag.shape[0] - 1, -t)
    tol = _EIG_RTOL * (float(np.max(np.abs(diag))) + 2.0 * t)
    if not math.isfinite(tol):
        raise EvaluationOverflowError(
            f"fd_spectrum: 2 s/h^2 + V overflows its Gershgorin bound (s/h^2 = {t:.3g})")
    block = n_states
    while True:
        # range 2 brackets by index; range 1 with an infinite tol is two Sturm
        # counts: m levels up to the bound (inf, so all, past the float range)
        m, coarse, iblock, isplit = _fd_lapack("dstebz", diag, off, 2, 0, 1, 1, block, tol, "B")
        coarse = coarse[:m]
        with np.errstate(over="ignore"):
            bound = np.max(coarse) + _EIG_GAP * tol
        reach = _fd_lapack("dstebz", diag, off, 1, -np.inf, bound, 1, 1, np.inf, "E")[0]
        if reach <= block:
            break
        if reach >= grid.n_points / 4:
            raise ConvergenceError(
                f"fd_spectrum: levels {n_states - 1} to {reach - 1} follow each "
                f"other closer than {_EIG_GAP * tol:.3g}")
        block = reach
    vecs = _fd_lapack("dstein", diag, off, coarse, iblock, isplit)[0]
    # a spike in V can split T into blocks, each bracketed in turn
    order = np.argsort(coarse)
    coarse, vecs = coarse[order], vecs[:, order]
    tv = diag[:, None] * vecs
    tv[1:] += off[:, None] * vecs[:-1]
    tv[:-1] += off[:, None] * vecs[1:]
    energies, rotation = np.linalg.eigh(vecs.T @ tv)
    far = np.flatnonzero(np.abs(energies - coarse) > tol)
    if far.size:
        k = int(far[0])
        raise ConvergenceError(
            f"fd_spectrum: level {k} at {energies[k]!r} left its bracket "
            f"{coarse[k]!r} +- {tol:.3g}")
    states = np.pad(vecs @ rotation[:, :n_states], ((1, 1), (0, 0))).T
    return _finished("FiniteDifference", energies[:n_states].tolist(), states, r)


def _numerov_sweep(f, h2):
    """Integrate u'' = f u outward from (0, 1); return (v, log_scale).

    The three-term recurrence c_(j+1) u_(j+1) = d_j u_j - c_(j-1) u_(j-1),
    with c = 1 - h2 f/12 and d = 2 (1 + 5 h2 f/12), is solved as one
    lower-triangular banded system over the rest of the grid (LAPACK
    dtbtrs, two sub-diagonals) from two carry-in values renormalised to a
    maximum of 1. Forward substitution makes every value before the first
    one above e^600 (or non-finite) exact, so that prefix is kept and the
    solve restarts from its last two values. u = v exp(log_scale), with
    one log_scale per block (0 in the first); a singular step, or a
    restart that keeps no value, raises EvaluationOverflowError. The
    recurrence is linear, so a start (0, u_1) only scales the sweep.
    """
    n = f.shape[0]
    q = (h2 / 12.0) * f
    c = 1.0 - q
    d = 2.0 + 10.0 * q
    # column k holds the coefficients of u_(k+2) in band storage
    ab = np.empty((3, n - 2), order="F")
    ab[0] = c[2:]
    ab[1] = -d[2:]
    ab[2] = c[2:]
    v = np.empty(n)
    v[0], v[1] = 0.0, 1.0
    start, level = 2, 0.0
    log_scale = np.zeros(n)
    while start < n:
        w0, w1 = v[start - 2], v[start - 1]
        carry = max(abs(w0), abs(w1))
        if carry > 0.0:
            w0, w1 = w0 / carry, w1 / carry
            level += math.log(carry)
        rhs = np.zeros(n - start)
        # the carry-ins enter the first two equations only
        rhs[0] = d[start - 1] * w1 - c[start - 2] * w0
        rhs[1:2] = -c[start - 1] * w1
        x, info = _lapack().dtbtrs(ab[:, start - 2:], rhs, uplo="L", overwrite_b=True)
        bad = np.flatnonzero(~(np.abs(x) <= _MAX_VALUE))
        kept = int(bad[0]) if bad.size else x.size
        if info != 0 or kept == 0:
            raise EvaluationOverflowError(_SWEEP_FAILED)
        v[start:start + kept] = x[:kept]
        log_scale[start:start + kept] = level
        start += kept
    return v, log_scale


def _log_amplitude(v, log_scale):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(v)) + log_scale


def _match_point(f):
    """The matching point m of a probe at f = (V - E)/s: the deepest point
    (least f) of the last classically allowed (f < 0) run of interior
    points, or n - 2 where r_max's neighbour is allowed or no point is: a
    probe below the whole potential must not match next to the origin,
    where a singular barrier's sample can make 1 - h^2 f/12 negative."""
    n = f.shape[0]
    if f[-2] < 0.0:
        return n - 2
    allowed = np.flatnonzero(f[1:-2] < 0.0)
    if not allowed.size:
        return n - 2
    end = int(allowed[-1]) + 2
    barrier = np.flatnonzero(f[1:end] >= 0.0)
    start = int(barrier[-1]) + 2 if barrier.size else 1
    return start + int(np.argmin(f[start:end]))


def _matched_phase(f, h2, m):
    """(Theta, sweeps) of one probe matched at m: an outward sweep from
    (0, 1) to m + 1 and an inward one from u(r_max) = 0 to m (Pryce,
    Numerical Solution of Sturm-Liouville Problems, 1993, ch. 5).

    Theta = pi (N_out + N_in) + phi_out + phi_in + theta, with N the sign
    changes of a sweep before its pair at (m, m + 1), phi the Pruefer angle
    atan2(sin theta |a|, (b - cos theta a) sign a) in [0, pi] of that pair
    (a, b) in the sweep's own direction, and theta = arccos(d/2c) the
    recurrence's turn per step at m, or pi/2 where it does not turn there.
    The angles of two proportional pairs sum to a multiple of pi minus
    theta, so Theta, continuous in E at a fixed m, is (k + 1) pi exactly
    where the sweeps join into level k, and floor(Theta/pi) counts the
    levels below E whatever m, wherever 1 - h2 f/12 > 0. At m = n - 2 the
    inward pair is (0, 1) and Theta is the outward sweep's end phase.
    """
    sweeps = (_numerov_sweep(f[:m + 2], h2), _numerov_sweep(f[m:][::-1], h2))
    q = float(h2 * f[m]) / 12.0
    cos = (1.0 + 5.0 * q) / (1.0 - q)
    if -1.0 < cos < 1.0:
        theta = math.acos(cos)
    else:
        cos, theta = 0.0, 0.5 * math.pi
    sin = math.sqrt(1.0 - cos * cos)
    phase = theta
    for v, log_scale in sweeps:
        negative = np.signbit(v[:-1])
        a, b = float(v[-2]) * math.exp(log_scale[-2] - log_scale[-1]), float(v[-1])
        phase += (math.pi * int(np.count_nonzero(negative[1:] != negative[:-1]))
                  + math.atan2(sin * abs(a), (b - cos * a) * math.copysign(1.0, a)))
    return phase, sweeps


def _joined_state(sweeps, m):
    """The outward sweep up to m joined to the inward one past it, scaled so
    that their pairs at (m, m + 1) agree in length and sign, with a maximum
    |u| of 1."""
    (v_out, s_out), (v_in, s_in) = sweeps
    pair_out = v_out[m:] * np.exp(s_out[m:] - s_out[-1])
    pair_in = v_in[:-3:-1] * np.exp(s_in[:-3:-1] - s_in[-1])
    size_out, size_in = math.hypot(*pair_out), math.hypot(*pair_in)
    sign = math.copysign(1.0, float((pair_out / size_out) @ pair_in))
    v = np.concatenate((v_out[:m + 1], sign * v_in[-2::-1]))
    shift = s_out[-1] - s_in[-1] + math.log(size_out / size_in)
    log_scale = np.concatenate((s_out[:m + 1], s_in[-2::-1] + shift))
    return v * np.exp(log_scale - np.max(_log_amplitude(v, log_scale)))


def _level_tol(E, unit):
    return 1e-10 * max(unit, abs(E))


def _phase_root(phase, lo, hi, k, e_end, unit):
    """Level k between the samples lo and hi, (E, Theta) with Theta either
    side of (k + 1) pi, to a bracket of width 1e-10 max(unit, |E|), by
    regula falsi on Theta - (k + 1) pi with Anderson and Bjorck's end
    scaling (BIT 13, 1973), in x = sign(E - e_end) sqrt|E - e_end|, e_end
    the potential at the second-last point."""
    target = (k + 1) * math.pi

    def energy(x):
        return e_end + x * abs(x)

    (xa, fa), (xb, fb) = ((math.copysign(math.sqrt(abs(E - e_end)), E - e_end), angle - target)
                          for E, angle in (lo, hi))
    side, last, move = 0, xa, math.inf
    for _ in range(_MAX_BISECT):
        x = (xa * fb - xb * fa) / (fb - fa)
        tol = _level_tol(energy(x), unit) / (abs(xa) + abs(xb))
        if side and abs(x - last) < 0.5 * tol:
            # a quarter tolerance on, so that the next evaluation closes the bracket
            x -= 0.25 * tol * side
        # bisection for a step out of the bracket or longer than half the last
        if not xa < x < xb or abs(x - last) > 0.5 * move:
            x = 0.5 * (xa + xb)
        move, last = abs(x - last), x
        E = energy(x)
        fx = phase(E) - target
        if fx == 0.0:
            return E
        if fx > 0.0:
            if side > 0:
                fa *= 1.0 - fx / fb if fx < fb else 0.5
            xb, fb, side = x, fx, 1
        else:
            if side < 0:
                fb *= 1.0 - fx / fa if fx > fa else 0.5
            xa, fa, side = x, fx, -1
        if energy(xb) - energy(xa) <= _level_tol(E, unit):
            return 0.5 * (energy(xa) + energy(xb))
    raise ConvergenceError(
        f"numerov_spectrum: regula falsi not converged after {_MAX_BISECT} iterations")


def numerov_spectrum(veff, consts, grid, n_states) -> NumericSpectrum:
    """The lowest n_states levels by Numerov shooting on veff, the effective
    potential at grid.points(); level k is entry k and has k nodes.

    Sweeps start from (u_0, u_1) = (0, 1), so u = 0 exactly at r_min
    whatever the potential's sample there. Energies count in the unit
    s (40/r_max)^2, s = hbar^2/2m, so that the window and the tolerance
    scale with the levels. Each probe at E is one matched phase Theta
    (_matched_phase, _match_point). The window starts 1 unit below the
    interior floor, where a grid whose h^2 (V - E)/s overflows past r_min
    is refused (EvaluationOverflowError), as is one with Theta >= pi
    (ResolutionError) and a unit that vanishes beside the floor
    (EvaluationOverflowError). It ends 1e-6 unit below the lower of the
    last two samples where floor(Theta/pi) reaches n_states there, and
    otherwise 1e-6 unit above the higher, or 1, 2, 4, ... units further
    up, where it does; those end probes split any bracket at the potential
    at r_max. Level k is bracketed by every sample's
    Theta against (k + 1) pi and closed on it by regula falsi
    (_phase_root) to 1e-10 max(unit, |E|); its state is the last probe's
    two sweeps joined at m.
    """
    r, veff = _checked(veff, grid, n_states)
    if n_states == 0:
        return _finished("Numerov", (), (), r)
    h2 = grid.h * grid.h
    pref = 1.0 / consts.s
    reach = DEFAULT_REACH / grid.r_max
    unit = consts.s * (reach * reach)
    samples = []  # (E, Theta) of every probe
    latest = None  # the sweeps and match point of the last probe only

    def phase(E):
        nonlocal latest
        with np.errstate(over="ignore"):
            f = pref * (veff - E)
        f[0] = 0.0  # r_min's sample only ever multiplies u_0 = 0
        m = _match_point(f)
        angle, sweeps = _matched_phase(f, h2, m)
        samples.append((E, angle))
        latest = sweeps, m
        return angle

    # interior floor: boundary samples may be singular and only ever
    # multiply the u = 0 start value
    e_lo = float(np.min(veff[1:-1])) - unit
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~np.isfinite(h2 * (pref * (veff[1:] - e_lo))))
    if bad.size:
        raise EvaluationOverflowError(
            f"numerov_spectrum: h^2 (V - E)/s is non-finite at r = {float(r[bad[0] + 1])}")
    k_lo = int(phase(e_lo) // math.pi)
    if k_lo:
        # no state has nodes below the potential minimum
        raise ResolutionError(
            f"numerov_spectrum: the sweep has {k_lo} nodes below the potential "
            f"minimum; n_points = {grid.n_points} is too coarse for this potential")
    if e_lo + unit == e_lo:
        raise EvaluationOverflowError(
            f"numerov_spectrum: the energy unit s (40/r_max)^2 = {unit!r} vanishes "
            f"beside the window's floor {e_lo!r}")
    v_pair = veff[-2:].tolist()
    e_hi = min(v_pair) - 1e-6 * unit
    if not e_lo < e_hi or phase(e_hi) < n_states * math.pi:
        above = e_hi = max(v_pair) + 1e-6 * unit
        width = unit
        for _ in range(_MAX_BISECT):
            if phase(e_hi) >= n_states * math.pi:
                break
            e_hi, width = above + width, 2.0 * width
        else:
            raise ConvergenceError("numerov_spectrum: automatic window failed to grow")

    energies, states = [], []
    for k in range(n_states):
        target = (k + 1) * math.pi
        lo = max((s for s in samples if s[1] < target), key=lambda s: s[0])
        hi = min((s for s in samples if s[1] >= target and s[0] > lo[0]), key=lambda s: s[0])
        energies.append(_phase_root(phase, lo, hi, k, v_pair[0], unit))
        states.append(_joined_state(*latest))
    return _finished("Numerov", energies, states, r,
                     notes=(f"window auto-selected: [{e_lo:.6g}, {e_hi:.6g}]",))
