"""Output checks: independent references and properties the method must have.

Every check returns a list of failure strings; an empty list is a pass.
A failure string starts with a tag. `numerov_nodes` marks the Numerov
node-count fault that the fixed input of `inputs.FAULT` shows on every
run; any other tag is unexpected, except UNCHECKED, which marks a check
that could not be applied to this output and is reported, not failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

import reference

# The oracles solve within 1e-10 (Numerov bisection) and two ulps (LAPACK).
SOLVER_FLOOR = 1e-9
# Allowed oracle error over the first-order FD error scale of the ground
# state (see README, "Eckart tolerance").
ECKART_FACTOR = 3.0
# A %.9g cell is within half a unit of its ninth digit.
CELL_REL = 5e-9
# Rounding of the reference's own sum of terms.
SUM_REL = 1e-13
# The accuracy the repo README states for the wavefunction CSV's own
# integral of |R|^2: its grid starts at r_min, not at the normalization
# window's 1e-6/alpha.
CSV_NORM = 2e-5
# A wavefunction CSV resolves |R|^2 when the trapezoid on its rows and on
# every second and every fourth row agree to this.
CSV_RESOLVED = 1e-3
UNCHECKED = "unchecked:"


class Schemas:
    def __init__(self, root: Path):
        self.validators = {}
        for path in sorted((root / "src" / "hyperwell" / "schemas").glob("*.json")):
            schema = json.loads(path.read_text())
            Draft202012Validator.check_schema(schema)
            self.validators[path.stem] = Draft202012Validator(schema)

    def errors(self, kind: str, doc) -> list:
        return [f"schema: {kind}: {e.message}"
                for e in self.validators[kind].iter_errors(doc)][:3]


def _consts(cfg: dict) -> float:
    return cfg["hbar"] ** 2 / (2.0 * cfg["mass"])


def oracle_blocks(cfg: dict, blocks: list) -> list:
    """Checks on the per-l oracle blocks of an `oracle` or `validate` report."""
    p, s = cfg["potential"], _consts(cfg)
    fails = []
    fd_by_l = {}
    for block in blocks:
        l = block["l"]
        if "error" in block:
            fails.append(f"oracle_error: l={l}: {block['error']}")
            continue
        n = block["n_states"]
        for key, tag in (("fd", "fd_nodes"), ("numerov", "numerov_nodes")):
            spec = block[key]
            if spec["indices"] != list(range(n)):
                fails.append(f"levels: {key} l={l}: indices {spec['indices']}")
            # oscillation theorem: level k has k interior nodes
            if spec["node_counts"] != spec["indices"]:
                fails.append(f"{tag}: l={l}: node_counts {spec['node_counts']} "
                             f"for levels {spec['indices']}")
            if spec["unreliable"] != reference.fall_to_center(p, s, l):
                fails.append(f"unreliable: {key} l={l}: {spec['unreliable']}")
        fd_by_l[l] = block["fd"]["energies"]
        if l == 0 and not reference.fall_to_center(p, s, 0):
            fails += _eckart(cfg, block)
    ls = sorted(fd_by_l)
    for lo, hi in zip(ls, ls[1:]):
        for k, (e_lo, e_hi) in enumerate(zip(fd_by_l[lo], fd_by_l[hi])):
            if not e_hi > e_lo:
                fails.append(f"l_order: level {k}: E(l={hi}) = {e_hi} <= E(l={lo}) = {e_lo}")
    return fails


def _eckart(cfg: dict, block: dict) -> list:
    """s-wave levels against the exact Eckart levels."""
    p, s, grid = cfg["potential"], _consts(cfg), cfg["grid"]
    asym = reference.asymptote(p)
    scale = None
    fails = []
    for key in ("fd", "numerov"):
        for k, e in zip(block[key]["indices"], block[key]["energies"]):
            e_ref, bound = reference.eckart_level(p, s, k)
            if (e < asym) != bound:
                fails.append(f"eckart_bound: {key} level {k}: E - asymptote = {e - asym:.6g}, "
                             f"Eckart bound = {bound}")
                continue
            if not bound:
                continue
            if scale is None:
                scale = reference.fd_error_estimate(p, s, grid["r_min"], grid["r_max"],
                                                    grid["n_points"])
            tol = ECKART_FACTOR * scale + SOLVER_FLOOR * max(1.0, abs(e_ref))
            if not abs(e - e_ref) <= tol:
                fails.append(f"eckart_level: {key} level {k}: {e!r} vs {e_ref!r} "
                             f"(tolerance {tol:.3g})")
    return fails


def oracle_report(cfg: dict, doc: dict, schemas: Schemas) -> list:
    return schemas.errors("oracle", doc) + oracle_blocks(cfg, doc["per_l"])


def validate_report(cfg: dict, doc: dict, schemas: Schemas) -> list:
    p, s = cfg["potential"], _consts(cfg)
    fails = schemas.errors("validate", doc)
    pot = doc["potential"]
    asym = reference.asymptote(p)
    if not abs(pot["asymptote"] - asym) <= 1e-12 * max(1.0, abs(asym)):
        fails.append(f"asymptote: {pot['asymptote']!r} vs {asym!r}")
    for l, flag in pot["origin_unreliable_per_l"].items():
        if flag != reference.fall_to_center(p, s, int(l)):
            fails.append(f"origin_unreliable: l={l}: {flag}")
    return fails + oracle_blocks(cfg, doc["oracle"]["per_l"])


def _csv(text: str):
    """(header, rows as a float array with nan for empty cells); comments dropped."""
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = data[0].split(",")
    rows = np.array([[float(c) if c else math.nan for c in ln.split(",")] for ln in data[1:]])
    return header, rows


def _cells(tag: str, got: np.ndarray, want: np.ndarray, magnitude: np.ndarray) -> list:
    bad = ~(np.abs(got - want) <= CELL_REL * np.abs(want) + SUM_REL * magnitude)
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{tag}: {int(bad.sum())} cells differ, first {got[i]!r} vs {want[i]!r}"]
    return []


def _grid_r(cfg: dict) -> np.ndarray:
    g = cfg["grid"]
    return np.linspace(g["r_min"], g["r_max"], g["n_points"])


def potential_csv(cfg: dict, kind: str, alphas, text: str) -> list:
    header, rows = _csv(text)
    want_header = ["r"] + [f"V_alpha={a:.9g}" for a in alphas]
    if header != want_header:
        return [f"header: {header}"]
    r = _grid_r(cfg)
    fails = _cells("r", rows[:, 0], r, np.zeros_like(r))
    base = reference.shape(kind, cfg["potential"])
    for j, a in enumerate(alphas):
        v, mag = reference.potential({**base, "alpha": a}, r)
        fails += _cells(f"potential alpha={a}", rows[:, 1 + j], v, mag)
    return fails


def effective_csv(cfg: dict, ls, approximate: bool, text: str) -> list:
    header, rows = _csv(text)
    if header != ["r"] + [f"Veff_l={l}" for l in ls]:
        return [f"header: {header}"]
    p, s = cfg["potential"], _consts(cfg)
    r = _grid_r(cfg)
    v, mag = reference.potential(p, r)
    fails = []
    for j, l in enumerate(ls):
        b = reference.barrier(p, s, l, r, approximate)
        fails += _cells(f"effective l={l}", rows[:, 1 + j], v + b, mag + b)
    # the barrier rises with l at every r > 0: columns never reverse, and
    # are strictly ordered wherever the barriers differ by more than the
    # cells' rounding
    for j in range(len(ls) - 1):
        lo, hi = rows[:, 1 + j], rows[:, 2 + j]
        gap = reference.barrier(p, s, ls[j + 1], r, approximate) \
            - reference.barrier(p, s, ls[j], r, approximate)
        resolved = gap > 2 * CELL_REL * (np.abs(lo) + np.abs(hi)) + SUM_REL * mag
        if np.any(hi < lo) or np.any(~(hi[resolved] > lo[resolved])):
            fails.append(f"l_order: Veff_l={ls[j + 1]} not above Veff_l={ls[j]}")
    return fails


def wavefunction_csv(cfg: dict, text: str) -> list:
    """|R|^2 integrates to 1 on the CSV's own grid, where that grid resolves it.

    T_h, T_2h and T_4h are the trapezoid integrals over the rows and over
    every second and every fourth row. The grid resolves |R|^2 when
    |T_h - T_2h| and |T_h - T_4h| are at most CSV_RESOLVED; then T_h must be
    1 within the CSV accuracy the repo README states plus the h^2 error
    estimate |T_h - T_2h| / 3. Otherwise the integral says nothing about the
    normalization and the check is reported as not applied.
    """
    header, rows = _csv(text)
    if header != ["r", "Re_R", "Im_R", "abs_R_sq"]:
        return [f"header: {header}"]
    if not np.all(np.isfinite(rows)):
        return ["wavefunction: non-finite cells"]
    r, re, im, sq = rows.T
    fails = []
    # abs_R_sq is |R|^2 of the printed Re_R and Im_R, each rounded to 9 digits
    mod2 = re * re + im * im
    if not np.all(np.abs(sq - mod2) <= 4 * CELL_REL * mod2 + 1e-300):
        fails.append("abs_R_sq: not Re_R^2 + Im_R^2")
    m = (len(r) - 1) // 4 * 4
    t_1, t_2, t_4 = (float(np.trapezoid(sq[:m + 1:k], r[:m + 1:k])) for k in (1, 2, 4))
    t_h = float(np.trapezoid(sq, r))
    if max(abs(t_1 - t_2), abs(t_1 - t_4)) > CSV_RESOLVED:
        fails.append(f"{UNCHECKED} norm: grid does not resolve |R|^2: T_h, T_2h, T_4h = "
                     f"{t_1:.6g}, {t_2:.6g}, {t_4:.6g}")
        return fails
    tol = CSV_NORM + abs(t_1 - t_2) / 3.0
    if not abs(t_h - 1.0) <= tol:
        fails.append(f"norm: trapezoid integral {t_h!r} (tolerance {tol:.3g})")
    return fails
