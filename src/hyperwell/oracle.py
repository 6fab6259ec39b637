"""Independent numerical bound-state solvers for the radial equation.

Two deliberately different methods act as ground truth for the closed
forms: a finite-difference discretization, its levels bracketed by
Sturm-sequence bisection and closed by a Rayleigh-Ritz step on the
inverse-iteration vectors, and Numerov shooting in an energy window
grown from the interior potential floor, bracketed by node counts and
closed on the Dirichlet root, by regula falsi on the end phase where
r_max is classically allowed and by Cooley's matched-sweep correction
where it is forbidden. Both return the lowest levels, level k as entry
k, each state normalized and signed the same way. Both solve

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
)
from .exact import kappa_radicand
from .potential import PhysicalConstants, PotentialParams, effective_potential

_NODE_EPS = 1e-8
_LOG_NODE_EPS = math.log(_NODE_EPS)
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


# scipy.linalg loads on the first solve, so that the commands that never
# solve (all but oracle and validate) start without it, about 0.3 s sooner
def eigh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*args, **kwargs)


def dtbtrs(*args, **kwargs):
    from scipy.linalg.lapack import dtbtrs

    return dtbtrs(*args, **kwargs)


@dataclass
class NumericSpectrum:
    method: str  # 'FiniteDifference' or 'Numerov'
    levels: tuple  # of (k, energy, node_count)
    wavefunctions: tuple  # per-level full-grid samples, L2-normalized
    r: np.ndarray
    notes: tuple = ()

    def __post_init__(self):
        es = [e for _, e, _ in self.levels]
        if any(e2 <= e1 for e1, e2 in zip(es, es[1:])):
            raise StructureError(f"{self.method}: energies not strictly increasing: {es}")


def _check_samples(veff, r) -> np.ndarray:
    """veff as a contiguous float array, refused unless it holds one finite
    sample per grid point."""
    v = np.ascontiguousarray(veff, dtype=float)
    if v.shape != r.shape:
        raise DomainError(
            f"effective potential has shape {v.shape} for a grid of shape {r.shape}")
    bad = ~np.isfinite(v)
    if np.any(bad):
        raise SamplingError(
            f"potential non-finite at r = {float(r[bad][0])}", r=float(r[bad][0]))
    return v


def _count_sign_changes(u: np.ndarray) -> int:
    """Interior sign changes, ignoring values below 1e-8 of the max amplitude."""
    umax = float(np.max(np.abs(u)))
    if umax == 0.0:
        return 0
    sig = u[np.abs(u) > _NODE_EPS * umax]
    if sig.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(sig)) != 0))


def _finish_state(u, r):
    """(u, node count) of a full-grid state: u L2-normalized by the
    trapezoid rule and signed so that its first component above 1e-8 of
    the maximum amplitude, in the lobe nearest the origin, is positive."""
    u = u / math.sqrt(float(np.trapezoid(u * u, r)))
    mag = np.abs(u)
    if u[int(np.argmax(mag > _NODE_EPS * np.max(mag)))] < 0.0:
        u = -u
    return u, _count_sign_changes(u[1:-1])


def _check_states(n_states, grid):
    if not isinstance(n_states, (int, np.integer)) or n_states < 0:
        raise DomainError(f"n_states must be a non-negative integer, got {n_states!r}")
    if n_states and n_states >= grid.n_points / 4:
        raise DomainError(
            f"n_states = {n_states} too large for n_points = {grid.n_points} "
            "(need n_states < n_points/4)")


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

    ConvergenceError is raised for a level outside its bracket,
    |E - w| > tol (a polluted vector), and where the block would have to
    grow to n_points/4 levels. Each state is L2-normalized with the
    trapezoid rule and signed so that its lobe nearest the origin is
    positive.
    """
    _check_states(n_states, grid)
    r = grid.points()
    veff = _check_samples(veff, r)
    if n_states == 0:
        return NumericSpectrum("FiniteDifference", (), (), r)
    h = grid.h
    t = consts.s / (h * h)
    diag = 2.0 * t + veff[1:-1]
    off = np.full(diag.shape[0] - 1, -t)
    tol = _EIG_RTOL * (float(np.max(np.abs(diag))) + 2.0 * t)
    block = n_states
    try:
        while True:
            coarse, vecs = eigh_tridiagonal(
                diag, off, select="i", select_range=(0, block - 1), tol=tol)
            # two Sturm counts: a tol wider than the range ends dstebz's
            # bisection at once, leaving one entry per level up to the bound
            reach = eigh_tridiagonal(
                diag, off, eigvals_only=True, select="v",
                select_range=(-np.inf, coarse[-1] + _EIG_GAP * tol), tol=np.inf).size
            if reach <= block:
                break
            if reach >= grid.n_points / 4:
                raise ConvergenceError(
                    f"fd_spectrum: levels {n_states - 1} to {reach - 1} follow each "
                    f"other closer than {_EIG_GAP * tol:.3g}")
            block = reach
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"fd_spectrum: LAPACK eigensolver failed: {exc}") from exc
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
    vecs = vecs @ rotation[:, :n_states]

    levels = []
    wfs = []
    for k in range(n_states):
        u = np.zeros(grid.n_points)
        u[1:-1] = vecs[:, k]
        u, nodes = _finish_state(u, r)
        levels.append((k, float(energies[k]), nodes))
        wfs.append(u)
    return NumericSpectrum("FiniteDifference", tuple(levels), tuple(wfs), r)


def _numerov_sweep(f, h2, u0, u1):
    """Integrate u'' = f u outward from (u0, u1); return (v, log_scale).

    The three-term recurrence c_(j+1) u_(j+1) = d_j u_j - c_(j-1) u_(j-1),
    with c = 1 - h2 f/12 and d = 2 (1 + 5 h2 f/12), is solved as one
    lower-triangular banded system over the rest of the grid (LAPACK
    dtbtrs, two sub-diagonals) from two carry-in values renormalised to a
    maximum of 1. Forward substitution makes every value before the first
    one above e^600 (or non-finite) exact, so that prefix is kept and the
    solve restarts from its last two values. u = v exp(log_scale), with
    one log_scale per block (u0, u1 in the first); a singular step, or a
    restart that keeps no value, raises EvaluationOverflowError.
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
    carry = max(abs(u0), abs(u1)) or 1.0
    v[0], v[1] = u0 / carry, u1 / carry
    start, level = 2, math.log(carry)
    log_scale = np.full(n, level)
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
        x, info = dtbtrs(ab[:, start - 2:], rhs, uplo="L", overwrite_b=True)
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


def _unit_max(v, log_scale):
    """The sweep u = v exp(log_scale) scaled to a maximum |u| of 1."""
    return v * np.exp(log_scale - np.max(_log_amplitude(v, log_scale)))


def _numerov_probe(f, h2, u0, u1):
    """(node count, endpoint, end phase) of one outward sweep.

    The count is the number of sign changes, ignoring values below 1e-8 of
    the running maximum amplitude. The endpoint is u at the last grid
    point divided by the sweep's maximum amplitude, so it lies in [-1, 1].
    Where the recurrence turns u by theta = arccos(d/2c) in (0, pi) per
    step at the second-last point (r_max classically allowed, on over
    about 2.5 points per wavelength) the end phase is Theta =
    pi N + phi + theta, else None: N is the count up to that point and phi
    the Pruefer angle in [0, pi] of the last pair (a, b), atan2(sin theta
    |a|, (b - cos theta a) sign a). Both count however small, so Theta
    rises continuously with E and passes (k + 1) pi where b = 0.
    """
    v, log_scale = _numerov_sweep(f, h2, u0, u1)
    if log_scale[0] == log_scale[-1]:
        # one block, so v is u in one scale; None: every value but a zero u0 counts
        amp = np.abs(v)
        top = float(np.max(amp))
        big = None if np.min(amp[1:]) > _NODE_EPS * top else amp > _NODE_EPS * np.fmax.accumulate(amp)
        end = float(v[-1]) / top if v[-1] else 0.0
    else:
        amp = _log_amplitude(v, log_scale)
        # amp is never NaN, so fmax (faster here) gives maximum's running max
        big = amp > np.fmax.accumulate(amp) + _LOG_NODE_EPS
        end = float(v[-1]) * math.exp(log_scale[-1] - np.max(amp)) if v[-1] else 0.0
    q = float(h2 * f[-2]) / 12.0
    cos = (1.0 + 5.0 * q) / (1.0 - q)
    turning = -1.0 < cos < 1.0
    if big is not None and turning:
        big[-2:] = v[-2:] != 0.0
    negative = np.signbit(v[int(v[0] == 0.0):] if big is None else v[big])
    flips = negative[1:] != negative[:-1]
    count = int(np.count_nonzero(flips))
    if not turning:
        return count, end, None
    a, b = float(v[-2]) * math.exp(log_scale[-2] - log_scale[-1]), float(v[-1])
    phi = math.atan2(math.sqrt(1.0 - cos * cos) * abs(a), (b - cos * a) * math.copysign(1.0, a))
    turns = count - int(bool(b) and flips.size and flips[-1])
    return count, end, math.pi * turns + phi + math.acos(cos)


def _level_tol(E, unit):
    return 1e-10 * max(unit, abs(E))


def _phase_root(probe, lo, hi, k, e_end, unit):
    """Level k between the probe samples lo and hi, whose end phases lie on
    either side of (k + 1) pi, to a bracket of width 1e-10 max(unit, |E|), by
    regula falsi on Theta - (k + 1) pi in x = sqrt(E - e_end) with Anderson
    and Bjorck's end scaling (BIT 13, 1973); e_end is the second-last sample."""
    target = (k + 1) * math.pi
    (xa, fa), (xb, fb) = ((math.sqrt(s[0] - e_end), s[3] - target) for s in (lo, hi))
    side, last, move = 0, xa, math.inf
    for _ in range(_MAX_BISECT):
        x = (xa * fb - xb * fa) / (fb - fa)
        tol = _level_tol(e_end + x * x, unit) / (xa + xb)
        if side and abs(x - last) < 0.5 * tol:
            # a quarter tolerance on, so that the next evaluation closes the bracket
            x -= 0.25 * tol * side
        # bisection for a step out of the bracket or longer than half the last
        if not xa < x < xb or abs(x - last) > 0.5 * move:
            x = 0.5 * (xa + xb)
        move, last = abs(x - last), x
        E = e_end + x * x
        fx = probe(E)[3] - target
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
        if (xb - xa) * (xb + xa) <= _level_tol(E, unit):
            return e_end + 0.5 * (xa * xa + xb * xb)
    raise ConvergenceError(
        f"numerov_spectrum: regula falsi not converged after {_MAX_BISECT} iterations")


def _matched_sweep(f, h2, u0, u1, m):
    """An outward sweep to m + 1 matched to an inward sweep from
    u(r_max) = 0 to m (Cooley, Math. Comp. 15, 363, 1961), as
    (u, mismatch, defect).

    u is the outward sweep up to m joined to the inward one past it,
    scaled to agree at m, with a maximum |u| of 1. The mismatch is the
    Wronskian u_out(m) u_in(m+1) - u_out(m+1) u_in(m) with each pair
    scaled to unit length: bounded, free of poles and zero at the
    Dirichlet root. The recurrence conserves the Wronskian of any two
    sweeps, so the mismatch has the sign opposite to the outward sweep's
    endpoint u(r_max), wherever m lies, while 1 - h2 f/12 stays positive
    at m, m + 1 and the last two points. The defect is Cooley's energy
    correction in units of f: the Numerov residual R of u at m, weighted
    by w(m) = (1 - h2 f(m)/12) u(m) and divided by the sum of u^2. The
    recurrence is symmetric in w, which makes this weight the exact first
    order, so for f = (2m/hbar^2)(V - E) the level lies at
    E - defect / (2m/hbar^2) to second order.
    """
    v_out, s_out = _numerov_sweep(f[:m + 2], h2, u0, u1)
    v_in, s_in = _numerov_sweep(f[m:][::-1], h2, 0.0, 1.0)
    pair_out = v_out[m:] * np.exp(s_out[m:] - np.max(s_out[m:]))
    pair_in = v_in[:-3:-1] * np.exp(s_in[:-3:-1] - np.max(s_in[-2:]))
    mismatch = float(pair_out[0] * pair_in[1] - pair_out[1] * pair_in[0]) / (
        math.hypot(*pair_out) * math.hypot(*pair_in))
    shift = _log_amplitude(v_out[m], s_out[m]) - _log_amplitude(v_in[-1], s_in[-1])
    sign = np.sign(v_out[m]) * np.sign(v_in[-1])
    u = _unit_max(np.concatenate((v_out[:m + 1], sign * v_in[-2::-1])),
                  np.concatenate((s_out[:m + 1], s_in[-2::-1] + shift)))
    c = 1.0 - h2 * f[m - 1:m + 2] / 12.0
    residual = (c[0] * u[m - 1] - 2.0 * c[1] * u[m] + c[2] * u[m + 1]) / h2 - f[m] * u[m]
    return u, mismatch, float(residual * c[1] * u[m] / np.dot(u, u))


def _cooley(match, lo, hi, unit):
    """Level in the single-level bracket of probe samples (lo, hi), as
    (E, u) of its last matched evaluation. match(E, a) gives _matched_sweep's
    (u, mismatch) at E, matched at the last point classically allowed at
    the bracket's lower end a <= E, and Cooley's correction in energy units.

    Newton steps on the correction, kept inside the bracket by the sign of
    the mismatch, which is opposite to the probe endpoint's at both ends:
    a step that leaves the bracket is replaced by bisection. Stops on a
    sign-changing bracket of width 1e-10 max(unit, |E|).
    """
    a, b = lo[0], hi[0]
    E = 0.5 * (a + b)
    for _ in range(_MAX_BISECT):
        u, mismatch, step = match(E, a)
        if mismatch == 0.0:
            return E, u
        if (mismatch < 0.0) == (lo[2] > 0.0):
            a = E
        else:
            b = E
        tol = _level_tol(E, unit)
        if b - a <= tol:
            return E, u
        if abs(step) < 0.5 * tol:
            # a quarter tolerance past the estimated root, toward the far
            # end, so that the next evaluation closes the bracket
            step += 0.25 * tol if E == a else -0.25 * tol
        E += step
        if not a < E < b:
            E = 0.5 * (a + b)
    raise ConvergenceError(
        f"numerov_spectrum: matched Newton steps not converged after {_MAX_BISECT} iterations")


def _locate_level(probe, samples, k, unit, v_end):
    """The (E, count, endpoint, phase) samples (lo, hi) around level k and
    their closer: bisection on the count narrows the bracket of samples so
    far until "phase" applies (end phases either side of (k + 1) pi) or
    "matched" (counts k and k + 1, an endpoint sign change and v_end, the
    potential at r_max, above both), else to 1e-10 max(unit, |E|) (None)."""
    lo = max((s for s in samples if s[1] <= k), key=lambda s: s[0])
    hi = min((s for s in samples if s[1] > k and s[0] > lo[0]), key=lambda s: s[0])
    for _ in range(_MAX_BISECT):
        if lo[3] is not None and hi[3] is not None and lo[3] < (k + 1) * math.pi < hi[3]:
            return lo, hi, "phase"
        if lo[1] == k and hi[1] == k + 1 and lo[2] * hi[2] < 0.0 and v_end > hi[0]:
            return lo, hi, "matched"
        if hi[0] - lo[0] <= _level_tol(hi[0], unit):
            return lo, hi, None
        mid = probe(0.5 * (lo[0] + hi[0]))
        if mid[1] >= k + 1:
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(
        f"numerov_spectrum: bisection for level {k} not converged after {_MAX_BISECT} iterations")


def numerov_spectrum(veff, consts, grid, n_states) -> NumericSpectrum:
    """The lowest n_states levels by Numerov shooting on veff, the
    effective potential at grid.points(); level k is entry k and has k
    nodes.

    Every sweep starts from (u_0, u_1) = (0, h), so u = 0 exactly at the
    left boundary (identical to the Dirichlet condition the
    finite-difference oracle imposes, and immune to a singular potential
    sample at r_min); u_1 only scales the sweep. Energies are counted in
    the unit s (40/r_max)^2, with s = hbar^2/2m: s alpha^2 on the default
    grid, and 1 at s = 1 and r_max = 40. Scaling the energy unit or the
    length then scales the window and every tolerance with the levels.
    The energy window starts 1 unit below the interior potential floor,
    where no state has nodes; a grid so coarse that the sweep already has
    nodes there raises ResolutionError. Its width starts at 1 unit and
    doubles until the sweep at its upper end has n_states nodes. Each
    level is bracketed by the count of thresholded sign changes of the
    outward sweep, reusing every probe sweep of the call, and located at
    the Dirichlet root u(r_max) = 0 to |dE| <= 1e-10 max(unit, |E|).
    Two probes 1e-6 unit either side of the potential at r_max split the
    bracket of a level near it. A box level, r_max classically allowed
    across its bracket, is closed by regula falsi on the end phase
    (_numerov_probe), which rises smoothly with E. Below r_max's
    potential, the scaled endpoint is +-1 except exponentially close to
    the level, so count bisection to a single-level bracket and Newton
    steps on Cooley's energy correction close it, each from one outward
    sweep matched to one inward sweep from u(r_max) = 0. Wherever r_max is
    forbidden at the level itself, the state is one such matched sweep at
    the level (the last Newton step's), so the outward sweep's growing
    tail never enters it; elsewhere the outward sweep is the state.
    """
    _check_states(n_states, grid)
    r = grid.points()
    veff = _check_samples(veff, r)
    if n_states == 0:
        return NumericSpectrum("Numerov", (), (), r)
    h = grid.h
    h2 = h * h
    pref = 1.0 / consts.s
    unit = consts.s * (DEFAULT_REACH / grid.r_max) ** 2
    u0, u1 = 0.0, h
    samples = []  # (E, node count, endpoint, end phase) of every probe

    def probe(E):
        samples.append((E, *_numerov_probe(pref * (veff - E), h2, u0, u1)))
        return samples[-1]

    # interior floor: boundary samples may be singular and only ever
    # multiply the u = 0 start value
    e_lo = float(np.min(veff[1:-1])) - unit
    k_lo = probe(e_lo)[1]
    if k_lo:
        # no state has nodes below the potential minimum
        raise ResolutionError(
            f"numerov_spectrum: the sweep has {k_lo} nodes below the potential "
            f"minimum; n_points = {grid.n_points} is too coarse for this potential")
    e_hi = e_lo + unit
    for _ in range(_MAX_BISECT):
        if probe(e_hi)[1] >= n_states:
            break
        e_hi = e_lo + 2.0 * (e_hi - e_lo)
    else:
        raise ConvergenceError("numerov_spectrum: automatic window failed to grow")
    # two probes just around r_max's potential split any bracket spanning it
    v_pair = veff[-2:].tolist()
    above = max(v_pair) + 1e-6 * unit
    if above < e_hi and probe(above)[1]:
        probe(min(v_pair) - 1e-6 * unit)

    def match(E, a):
        # the last point classically allowed at a stays allowed at every E >= a
        m = int(np.max(np.flatnonzero(veff <= a), initial=1))
        u, mismatch, defect = _matched_sweep(pref * (veff - E), h2, u0, u1, m)
        return u, mismatch, -defect / pref

    levels, wfs = [], []
    for k in range(n_states):
        lo, hi, closer = _locate_level(probe, samples, k, unit, v_pair[1])
        if closer == "matched":
            # r_max classically forbidden: the endpoint is saturated
            E, u = _cooley(match, lo, hi, unit)
        else:
            # without a closer, the count bisection closed the bracket
            E = (_phase_root(probe, lo, hi, k, v_pair[0], unit) if closer == "phase"
                 else 0.5 * (lo[0] + hi[0]))
            if veff[-1] > E:
                # a level bound below the potential at r_max: the outward
                # sweep's tail grows past the level
                u = match(E, lo[0])[0]
            else:
                u = _unit_max(*_numerov_sweep(pref * (veff - E), h2, u0, u1))
        u, nodes = _finish_state(u, r)
        levels.append((k, E, nodes))
        wfs.append(u)
    return NumericSpectrum("Numerov", tuple(levels), tuple(wfs), r,
                           notes=(f"window auto-selected: [{e_lo:.6g}, {e_hi:.6g}]",))


@dataclass(frozen=True)
class StudyReport:
    alpha: float
    l: int
    levels: tuple  # of (k, E_exact, E_approx, shift_abs, shift_rel)
    unreliable: bool
    notes: tuple = ()


def fall_to_center_unreliable(params: PotentialParams, consts: PhysicalConstants, l) -> bool:
    """True when the origin's inverse-square coefficient is attractive past
    the critical -hbar^2/(8m) (exact.kappa_radicand < 0), where ground-truth
    bound states cease to exist and grid results depend on r_min."""
    return kappa_radicand(params, consts, l) < 0.0


def approximation_study(params: PotentialParams, consts, l, grid, n_states) -> StudyReport:
    """Per-level shift from replacing 1/r^2 by alpha^2 cosech^2(alpha r).

    Runs the finite-difference solver twice on the same grid, once with
    the exact centrifugal term and once with the hyperbolic surrogate, and
    reports the per-level relative energy differences. Meaningless at
    l = 0, where both terms vanish.
    """
    if not isinstance(l, (int, np.integer)) or l < 1:
        raise DomainError(f"approximation_study: requires l >= 1, got {l!r}")
    r = grid.points()
    exact = fd_spectrum(effective_potential(params, consts, l, r), consts, grid, n_states)
    approx = fd_spectrum(effective_potential(params, consts, l, r, approximate=True),
                         consts, grid, n_states)
    notes = []
    m = min(len(exact.levels), len(approx.levels))
    if m < n_states:
        notes.append(f"only {m} of {n_states} levels resolved")
    rows = []
    for i in range(m):
        e_ex = exact.levels[i][1]
        e_ap = approx.levels[i][1]
        d = abs(e_ex - e_ap)
        rows.append((i, e_ex, e_ap, d, d / max(1e-300, abs(e_ex))))
    return StudyReport(params.alpha, int(l), tuple(rows),
                       fall_to_center_unreliable(params, consts, l), tuple(notes))
