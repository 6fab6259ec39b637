"""Acceptance gate: the ten primary criteria, one PASS/FAIL line each.

Criterion 2 checks the mechanical k candidates against an independent
root of the perfect-square condition that defines them. The printed closed
form for k does not solve that condition; the test pins this discrepancy
as measured data (the printed form as recorded in the diagnostics, and its
nonzero radicand discriminant) instead of failing on it.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hyperwell.analytic import (
    DimensionlessParams,
    closed_form_diagnostics,
    energy_levels,
)
from hyperwell.config import RadialGrid
from hyperwell.errors import DegenerateParameterError, SingularCoefficientError
from hyperwell.nu import NUProblem, Poly, k_candidates, lambda_n_of, radicand_coeffs
from hyperwell.oracle import fd_spectrum, numerov_spectrum
from hyperwell.potential import PhysicalConstants, PotentialParams, effective_potential
from hyperwell.special import hyperbolic_pair, jacobi, principal_sqrt
from params import mapped

from test_special import jacobi_sum

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
CONSTS = PhysicalConstants(hbar=1.0, mass=0.5)
DEMO = PotentialParams(a=1.0, b=0.01, c=2.0, d=2.0, V0=1.0, V1=0.5, V2=0.02, alpha=1.0)


def report(num, ok, detail, elapsed, limit):
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{elapsed:.2f}s / limit {limit:.0f}s]")
    print(line)
    return ok and elapsed < limit


def run_cli(*args, timeout=60):
    """The CLI in a subprocess, with warnings as errors as in pytest itself."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "hyperwell", *args],
        capture_output=True, text=True, timeout=timeout, cwd=str(REPO),
        env=dict(os.environ))


def random_triple(rng):
    eps2 = complex(rng.normal(), rng.normal())
    beta2 = complex(rng.normal(), rng.normal())
    gamma2 = complex(rng.normal(), rng.normal())
    return eps2, beta2, gamma2


def triple_problem(eps2, beta2, gamma2):
    return NUProblem(
        sigma=Poly(1.0, 0.0, 1.0),
        sigma_bar=Poly(-eps2, beta2, gamma2),
        tau_bar=Poly(principal_sqrt(beta2), 2.0, 0.0),
    )


def test_criterion_01_radicand_transcription():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(100):
        eps2, beta2, gamma2 = random_triple(rng)
        k = complex(rng.normal(), rng.normal())
        rad = radicand_coeffs(triple_problem(eps2, beta2, gamma2), k)
        want = (beta2 + 4.0 * eps2 + 4.0 * k, -4.0 * beta2, 4.0 * k - 4.0 * gamma2)
        got = (4.0 * rad.c0, 4.0 * rad.c1, 4.0 * rad.c2)
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / max(abs(w), 1.0))
    ok = worst <= 1e-14
    elapsed = time.perf_counter() - t0
    assert report(1, ok, f"under-root coefficients exact, worst rel delta {worst:.2e}",
                  elapsed, 1.0)


def best_pair_delta(ks, refs):
    """Largest relative delta under the better of the two pairings of k pairs."""
    def rel(a, b):
        return abs(a - b) / max(abs(b), 1.0)
    direct = max(rel(ks[0], refs[0]), rel(ks[1], refs[1]))
    swapped = max(rel(ks[0], refs[1]), rel(ks[1], refs[0]))
    return min(direct, swapped)


def scaled_discriminant(prob, k):
    """|B^2 - 4AC| of the radicand at k, scaled by max(|B|^2, |4AC|, 1)."""
    rad = radicand_coeffs(prob, k)
    b2, four_ac = rad.c1 * rad.c1, 4.0 * rad.c2 * rad.c0
    return abs(b2 - four_ac) / max(abs(b2), abs(four_ac), 1.0)


def test_criterion_02_k_printed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4096)
    independent_worst = 0.0
    disc_worst = 0.0
    transcription_worst = 0.0
    printed_disc_min = math.inf
    printed_deltas = []
    for _ in range(100):
        eps2, beta2, gamma2 = random_triple(rng)
        beta = principal_sqrt(beta2)
        prob = triple_problem(eps2, beta2, gamma2)
        ks = k_candidates(prob)
        # B^2 = 4AC with A = k - gamma^2, B = -beta^2, C = k + eps^2 + beta^2/4
        half_base = (gamma2 - eps2 - beta2 / 4.0) / 2.0
        half_root = principal_sqrt((eps2 + beta2 / 4.0 + gamma2) ** 2 + beta2 * beta2) / 2.0
        independent_worst = max(independent_worst, best_pair_delta(
            ks, (half_base + half_root, half_base - half_root)))
        disc_worst = max(disc_worst, max(scaled_discriminant(prob, k) for k in ks))

        # the printed form, kept as a measured finding in the diagnostics
        u = principal_sqrt(eps2 * eps2 + eps2 * beta2 / 2.0) + gamma2
        v = 1j * beta * principal_sqrt(gamma2 + 2.5 * beta2)
        base = gamma2 - eps2 - beta2 / 4.0
        rad = principal_sqrt(u * u - v * v)
        printed = (base + rad, base - rad)
        diag = closed_form_diagnostics(DimensionlessParams(eps2, beta2, gamma2, beta), 0)[0]
        transcription_worst = max(transcription_worst, max(
            abs(got - want) / max(abs(want), 1.0)
            for got, want in zip(diag["k_reference"], printed)))
        printed_disc_min = min(printed_disc_min, min(diag["k_reference_disc"]))
        d_direct = max(abs(ks[0] - printed[0]), abs(ks[1] - printed[1]))
        d_swapped = max(abs(ks[0] - printed[1]), abs(ks[1] - printed[0]))
        printed_deltas.append(min(d_direct, d_swapped))
    worst = max(printed_deltas)
    median = sorted(printed_deltas)[len(printed_deltas) // 2]
    ok = (independent_worst <= 1e-10 and disc_worst <= 1e-12
          and transcription_worst <= 1e-10 and printed_disc_min > 1e-3)
    elapsed = time.perf_counter() - t0
    assert report(
        2, ok,
        f"mechanical k vs independent root worst rel {independent_worst:.2e}, "
        f"scaled |disc| <= {disc_worst:.1e}; printed-form k deltas: median "
        f"{median:.3g}, worst {worst:.3g}, its |disc| >= {printed_disc_min:.3g} "
        f"(the printed k does not satisfy the perfect-square condition)",
        elapsed, 1.0)


def test_criterion_03_lambda_n_mechanical():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(60):
        eps2, beta2, gamma2 = random_triple(rng)
        prob = triple_problem(eps2, beta2, gamma2)
        beta = principal_sqrt(beta2)
        u = principal_sqrt(eps2 * eps2 + eps2 * beta2 / 2.0) + gamma2
        v = 1j * beta * principal_sqrt(gamma2 + 2.5 * beta2)
        sqrt_upv = principal_sqrt(u + v)
        tau_ref = Poly(principal_sqrt(u - v), 2.0 - sqrt_upv, 0.0)
        for n in range(4):
            got = lambda_n_of(prob, tau_ref, n)
            want = n * sqrt_upv - n * (n + 1)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        assert lambda_n_of(prob, tau_ref, 0) == 0.0  # exactly
    # the printed deviation (index swapped for u) is recorded in diagnostics
    lv = energy_levels(DEMO, CONSTS, 1, 0)[0]
    diag = closed_form_diagnostics(lv.dp, 1)[0]
    swap_present = diag["lambda_n_printed_delta"] > 1.0
    ok = worst <= 1e-12 and swap_present
    elapsed = time.perf_counter() - t0
    assert report(
        3, ok,
        f"lambda_n = n sqrt(u+v) - n(n+1), worst rel {worst:.2e}; printed "
        f"u-for-n delta {diag['lambda_n_printed_delta']:.3g} in diagnostics",
        elapsed, 1.0)


def test_criterion_04_quantization_back_substitution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 100:
        params = PotentialParams(
            a=float(rng.uniform(0.2, 2.0)), b=float(rng.uniform(0.0, 0.2)),
            c=float(rng.uniform(0.3, 3.0)), d=float(rng.uniform(-2.0, 3.0)),
            V0=float(rng.uniform(0.2, 3.0)), V1=float(rng.uniform(0.0, 1.0)),
            V2=float(rng.uniform(0.01, 0.2)), alpha=float(rng.uniform(0.4, 3.0)))
        n = int(rng.integers(0, 4))
        l = int(rng.integers(0, 4))
        try:
            levels = energy_levels(params, CONSTS, n, l)
        except SingularCoefficientError:
            continue
        for lv in levels:
            worst = max(worst, lv.residual_quantization)
        checked += 1
    ok = worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert report(4, ok, f"both branches, 100 parameter sets, worst scaled "
                         f"residual {worst:.2e}", elapsed, 1.0)


def test_criterion_05_special_functions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(0, 9))
        args = (n, complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()))
        try:
            got = jacobi(*args)
        except DegenerateParameterError:
            continue
        want = jacobi_sum(*args)
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        checked += 1
    endpoint_worst = 0.0
    for a in range(0, 5):
        for n in range(0, 7):
            val = jacobi(n, float(a), 0.25, 1.0)
            want = math.comb(n + a, n)
            endpoint_worst = max(endpoint_worst, abs(val - want) / max(1.0, want))
    ok = worst <= 1e-10 and endpoint_worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert report(5, ok, f"recurrence vs sum worst rel {worst:.2e}; endpoint "
                         f"identity worst {endpoint_worst:.2e}", elapsed, 1.0)


def box_potential(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def oscillator_potential(r):
    arr = np.asarray(r, dtype=float)
    return arr * arr


def test_criterion_06_oracle_correctness():
    t0 = time.perf_counter()
    failures = []

    # box ground state at n_points = 2000
    box_grid = RadialGrid(1e-9, 1.0, 2000)
    fd_box = fd_spectrum(box_potential(box_grid.points()), mapped(CONSTS, box_grid), 3)
    box_err = abs(fd_box.energies[0] - math.pi**2) / math.pi**2
    if box_err > 1e-3:
        failures.append(f"box ground err {box_err:.2e}")

    # oscillator odd levels
    osc_grid = RadialGrid(1e-6, 10.0, 2000)
    fd_osc = fd_spectrum(oscillator_potential(osc_grid.points()), mapped(CONSTS, osc_grid), 3)
    for k, exact in enumerate((3.0, 7.0, 11.0)):
        err = abs(fd_osc.energies[k] - exact) / exact
        if err > 1e-3:
            failures.append(f"oscillator level {exact} err {err:.2e}")

    # FD vs Numerov cross-agreement on both fixtures (grids frozen by
    # measurement: the box needs 4000 points for level 2, the oscillator 8000)
    cross_worst = 0.0
    box_fine = RadialGrid(1e-9, 1.0, 4000)
    fd = fd_spectrum(box_potential(box_fine.points()), mapped(CONSTS, box_fine), 3)
    nv = numerov_spectrum(box_potential(box_fine.points()), mapped(CONSTS, box_fine), 3)
    for k in range(3):
        cross_worst = max(cross_worst, abs(fd.energies[k] - nv.energies[k])
                          / max(1.0, abs(nv.energies[k])))
    osc_fine = RadialGrid(1e-6, 10.0, 8000)
    fd = fd_spectrum(oscillator_potential(osc_fine.points()), mapped(CONSTS, osc_fine), 3)
    nv = numerov_spectrum(oscillator_potential(osc_fine.points()), mapped(CONSTS, osc_fine), 3)
    for k in range(3):
        cross_worst = max(cross_worst, abs(fd.energies[k] - nv.energies[k])
                          / max(1.0, abs(nv.energies[k])))
    if cross_worst > 1e-6:
        failures.append(f"FD vs Numerov worst rel {cross_worst:.2e}")

    # O(h^2) convergence
    coarse_grid, fine_grid = RadialGrid(1e-9, 1.0, 1001), RadialGrid(1e-9, 1.0, 2001)
    coarse = fd_spectrum(box_potential(coarse_grid.points()), mapped(CONSTS, coarse_grid), 1)
    fine = fd_spectrum(box_potential(fine_grid.points()), mapped(CONSTS, fine_grid), 1)
    ratio = (abs(coarse.energies[0] - math.pi**2)
             / abs(fine.energies[0] - math.pi**2))
    if not 3.5 < ratio < 4.5:
        failures.append(f"h^2 ratio {ratio:.3f}")

    ok = not failures
    elapsed = time.perf_counter() - t0
    assert report(
        6, ok,
        failures[0] if failures else
        f"box err {box_err:.2e}, cross worst {cross_worst:.2e}, "
        f"h^2 ratio {ratio:.3f}",
        elapsed, 10.0)


def test_criterion_07_centrifugal_approximation():
    t0 = time.perf_counter()
    failures = []

    # pointwise envelope on alpha r in (0, 0.3]: the surrogate alpha^2
    # cosech^2(alpha r) for 1/r^2 errs by 1 - (alpha r)^2 cosech^2(alpha r)
    rng = np.random.default_rng(2)
    alpha, x = np.array([(rng.uniform(0.2, 5.0), rng.uniform(1e-6, 0.3))
                         for _ in range(500)]).T
    ar = alpha * (x / alpha)
    rel = np.abs(1.0 - ar * ar * hyperbolic_pair(ar)[1])
    worst_ratio = float(np.max(rel / (1.1 * x * x / 3.0)))
    if worst_ratio > 1.0:
        failures.append(f"pointwise envelope exceeded: ratio {worst_ratio:.3f}")

    # caption sweep: level shifts grow monotonically with alpha, and the
    # softer surrogate barrier puts the level below the exact-barrier one
    # (fixture frozen by measurement: deep coth well so every alpha in the
    # sweep keeps a genuinely bound l = 1 ground state; see decision ledger)
    study_grid = RadialGrid(1e-6, 4.0, 4000)
    r = study_grid.points()
    shifts = []
    for alpha in (1.0, 2.0, 3.0, 4.0):
        params = PotentialParams(a=1.0, b=0.0, c=0.0, d=0.0,
                                 V0=200.0, V1=0.0, V2=0.0, alpha=alpha)
        e_exact, e_approx = (
            fd_spectrum(effective_potential(params, CONSTS, 1, r, approximate=approx),
                        mapped(CONSTS, study_grid, params), 1).energies[0]
            for approx in (False, True))
        shifts.append(abs(e_exact - e_approx) / abs(e_exact))
        if e_exact > -params.V0:
            failures.append(f"alpha={alpha}: level not bound below asymptote")
        if not e_approx < e_exact:
            failures.append(f"alpha={alpha}: surrogate level {e_approx} not below {e_exact}")
    if not all(b > a for a, b in zip(shifts, shifts[1:])):
        failures.append(f"shifts not monotone: {[f'{s:.3e}' for s in shifts]}")

    ok = not failures
    elapsed = time.perf_counter() - t0
    assert report(
        7, ok,
        failures[0] if failures else
        f"envelope ratio max {worst_ratio:.3f}; shifts "
        + " < ".join(f"{s:.2e}" for s in shifts),
        elapsed, 20.0)


def parse_csv(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = []
    for line in rows[1:]:
        cells = line.split(",")
        data.append([float(x) if x else math.nan for x in cells])
    return header, np.array(data)


def test_criterion_08_figure_reproduction():
    t0 = time.perf_counter()
    failures = []

    # general (full-family) series: asymptote 1.005 at r = 20
    proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"), "--out", "-")
    _, data = parse_csv(proc.stdout)
    idx20 = int(np.argmin(np.abs(data[:, 0] - 20.0)))
    if abs(data[idx20, 1] - 1.005) > 1e-3:
        failures.append(f"general asymptote {data[idx20, 1]:.6f} at r = 20")
    # diverges to -infinity toward the origin (b V1 < c V2)
    if not data[0, 1] < -1e6:
        failures.append(f"general origin value {data[0, 1]:.3g} not divergent")

    proc = run_cli("potential", "--config", str(CONFIGS / "rosen_morse.cfg"), "--out", "-")
    _, rm = parse_csv(proc.stdout)
    if not rm[0, 1] < -1e6:
        failures.append(f"rosen-morse origin value {rm[0, 1]:.3g} not divergent")

    # the two remaining caption sets must produce clean CSVs
    for name in ("poschl_teller", "scarf"):
        proc = run_cli("potential", "--config", str(CONFIGS / f"{name}.cfg"), "--out", "-")
        if proc.returncode != 0:
            failures.append(f"{name} potential exit {proc.returncode}")
        else:
            _, d = parse_csv(proc.stdout)
            if not np.all(np.isfinite(d[:, 1])):
                failures.append(f"{name} produced non-finite samples")

    # effective-potential columns strictly ordered in l at every r
    proc = run_cli("effective", "--config", str(CONFIGS / "general.cfg"),
                   "--l", "1,2,3", "--out", "-")
    _, eff = parse_csv(proc.stdout)
    if not (np.all(eff[:, 1] < eff[:, 2]) and np.all(eff[:, 2] < eff[:, 3])):
        failures.append("effective columns not strictly ordered in l")

    ok = not failures
    elapsed = time.perf_counter() - t0
    assert report(8, ok, failures[0] if failures else
                  "asymptote, divergence and l-ordering all hold", elapsed, 5.0)


def test_criterion_09_validation_report():
    t0 = time.perf_counter()
    failures = []
    args = ("validate", "--config", str(CONFIGS / "general.cfg"),
            "--n", "0..2", "--l", "0..2", "--out", "-")
    proc = run_cli(*args)
    if proc.returncode != 0:
        failures.append(f"exit {proc.returncode}")
    doc = json.loads(proc.stdout)

    for section in ("states", "oracle"):
        if section not in doc:
            failures.append(f"missing section {section}")

    states = doc["states"]
    if len(states) != 9:
        failures.append(f"{len(states)} state records, wanted 9")
    for e in states:
        if e["singular"] is not None:
            failures.append(f"unexpected singular entry n={e['n']} l={e['l']}")
            continue
        for br in e["branches"]:
            for part in ("re", "im"):
                if not math.isfinite(br["energy"][part]):
                    failures.append("non-finite analytic energy")

    if not all("max_root_delta" in e.get("spectrum_variant", {}) for e in states):
        failures.append("missing constant-term variant roots")
    for lrec in doc["oracle"]["per_l"]:
        if not lrec["fd"]["energies"]:
            failures.append(f"no oracle energies at l={lrec['l']}")
    for e in states:
        if not all(math.isfinite(e.get(key, math.nan))
                   for key in ("fd_delta_abs", "fd_delta_rel")):
            failures.append("non-finite or missing FD delta")
        if not math.isfinite(e.get("ode_residual", {}).get("residual", math.nan)):
            failures.append("non-finite ode residual")
        if "diagnostics" not in e.get("nu_check", {}):
            failures.append("nu diagnostics not emitted per (n, l)")
        elif e["nu_check"]["diagnostics"]["k_best_pair_delta"] <= 0:
            failures.append("printed-form diagnostics missing k deltas")

    # reproducible byte-for-byte
    again = run_cli(*args)
    if again.stdout != proc.stdout:
        failures.append("report not byte-identical across runs")

    ok = not failures
    elapsed = time.perf_counter() - t0
    assert report(9, ok, failures[0] if failures else
                  "all sections present, finite, reproducible "
                  "(agreement intentionally NOT asserted)", elapsed, 30.0)


def test_criterion_10_singular_surfacing():
    t0 = time.perf_counter()
    failures = []
    for name in ("poschl_teller", "scarf"):
        cfg = str(CONFIGS / f"{name}.cfg")
        proc = run_cli("validate", "--config", cfg, "--out", "-")
        if proc.returncode != 0:
            failures.append(f"{name} validate exit {proc.returncode}")
            continue
        doc = json.loads(proc.stdout)
        entries = doc["states"]
        if not all(e["singular"] is not None and "beta = 0" in e["singular"]["reason"]
                   for e in entries):
            failures.append(f"{name}: singular entries not structured")
        for lrec in doc["oracle"]["per_l"]:
            if not lrec["fd"]["energies"] or not lrec["numerov"]["energies"]:
                failures.append(f"{name}: oracle spectrum missing")
        wf = run_cli("wavefunction", "--config", cfg, "--n", "0", "--l", "0",
                     "--out", "-")
        if wf.returncode != 4:
            failures.append(f"{name} wavefunction exit {wf.returncode}, wanted 4")
    ok = not failures
    elapsed = time.perf_counter() - t0
    assert report(10, ok, failures[0] if failures else
                  "beta = 0 surfaced as data; exit codes 4 (wavefunction) "
                  "and 0 (validate)", elapsed, 10.0)
