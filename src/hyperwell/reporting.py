"""Every document a command prints: the potential, effective-potential and
wavefunction CSVs and the JSON reports.

All emitters are deterministic: identical inputs produce byte-identical
output. Timestamps never appear in data; an optional stamp line goes into
`#` comments only.

CSV cells: 9 significant digits (`{:.9g}`); an empty cell where a term is
non-finite (a `scan_series` gap); `nan` printed as is. JSON keeps full
double precision, and a complex number renders as {"re": ..., "im": ...}.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import replace

from . import oracle
from .analytic import (
    EnergyLevel,
    RadialWavefunction,
    closed_form_diagnostics,
    dimensionless_from_eps2,
    energy_levels,
    ode_residual,
    radial_wavefunction,
)
from .errors import ConfigError, HyperwellError, SingularCoefficientError
from .oracle import fall_to_center_unreliable, fd_spectrum, numerov_spectrum
from .potential import KINDS, effective_potential, scan_series

SCHEMA_VERSION = 1

# beta -> 0+ probe: the a*V0 products walked toward the singular limit
_SINGULAR_LIMIT_PRODUCTS = tuple(10.0 ** (-k) for k in range(1, 9))


# ---------------------------------------------------------------------------
# primitive formatting
# ---------------------------------------------------------------------------

def fmt_number(x) -> str:
    """One CSV cell: 9 significant digits, empty cell for a gap."""
    return "" if x is None else f"{x:.9g}"


def csv_document(header, columns, head_comments=(), tail_comments=()) -> str:
    """Comma-separated document with LF endings and '#' comment lines.

    `columns` holds one sequence of numbers per header field, with None
    for a gap; columns of unequal length raise ValueError.
    """
    if len(columns) != len(header):
        raise ValueError(f"expected {len(header)} columns, got {len(columns)}")
    lines = [f"# {c}" for c in head_comments]
    lines.append(",".join(header))
    lines.extend(",".join(row)
                 for row in zip(*(map(fmt_number, col) for col in columns), strict=True))
    lines.extend(f"# {c}" for c in tail_comments)
    return "\n".join(lines) + "\n"


def _json_default(obj):
    """The encoder's hook: a complex number renders as {"re", "im"}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_document(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, default=_json_default) + "\n"


def stamp_comment() -> str:
    return "generated " + _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _comments(lines, stamp):
    return [*lines, stamp_comment()] if stamp else lines


# ---------------------------------------------------------------------------
# CSV documents
# ---------------------------------------------------------------------------

def potential_csv(config, kind="general", alphas=None, stamp=False) -> str:
    """V of the potential block under the shape constructor `kind`, one
    column per alpha (the block's own when alphas is None)."""
    base = KINDS[kind](config.params)
    alphas = alphas or (base.alpha,)
    r = config.grid.points()
    header = ["r"] + [f"V_alpha={a:.9g}" for a in alphas]
    columns = [r.tolist()] + [scan_series(replace(base, alpha=a), r) for a in alphas]
    return csv_document(header, columns, head_comments=_comments([f"kind = {kind}"], stamp))


def effective_csv(config, approximate=False, stamp=False) -> str:
    """The effective potential, one column per l; `approximate` puts the
    cosech^2 surrogate in place of the 1/r^2 barrier."""
    r = config.grid.points()
    header = ["r"] + [f"Veff_l={l}" for l in config.l_list]
    columns = [r.tolist()] + [scan_series(config.params, r, consts=config.consts, l=int(l),
                                          approximate=approximate) for l in config.l_list]
    barrier = "cosech2 surrogate" if approximate else "exact 1/r^2"
    return csv_document(header, columns,
                        head_comments=_comments([f"centrifugal barrier: {barrier}"], stamp))


def wavefunction_csv(config, branch="plus", stamp=False) -> str:
    """R of the single state in config on its grid, from the quantization
    root `branch`; raises SingularCoefficientError where the closed form
    divides by zero."""
    if len(config.n_list) != 1:
        raise ConfigError(f"wavefunction needs a single n, got {list(config.n_list)}")
    if len(config.l_list) != 1:
        raise ConfigError(f"wavefunction needs a single l, got {list(config.l_list)}")
    n, l = config.n_list[0], config.l_list[0]
    by_name = {lv.branch: lv for lv in energy_levels(config.params, config.consts, n, l)}
    level = by_name.get(branch)
    if level is None:
        raise ConfigError(f"no branch {branch!r} for this state")
    wf = radial_wavefunction(config.params, config.consts, level)
    r = config.grid.points()
    values = wf(r)
    columns = [r.tolist(), values.real.tolist(), values.imag.tolist(),
               (abs(values) ** 2).tolist()]
    achieved = wf.norm_integral * abs(wf.norm_constant) ** 2
    tail = [
        f"n = {n}, l = {l}, branch = {level.branch}",
        f"energy = {fmt_number(level.energy.real)} + {fmt_number(level.energy.imag)}i",
        f"N = {fmt_number(wf.norm_constant.real)} + {fmt_number(wf.norm_constant.imag)}i",
        f"norm_integral = {fmt_number(achieved)} over "
        f"[{fmt_number(wf.norm_window[0])}, {fmt_number(wf.norm_window[1])}]",
    ]
    return csv_document(["r", "Re_R", "Im_R", "abs_R_sq"], columns,
                        tail_comments=_comments(tail, stamp))


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def _config_echo(config) -> dict:
    p = config.params
    return {
        "potential": {"a": p.a, "b": p.b, "c": p.c, "d": p.d,
                      "V0": p.V0, "V1": p.V1, "V2": p.V2, "alpha": p.alpha},
        "constants": {"hbar": config.consts.hbar, "mass": config.consts.mass},
        "state": {"n": list(config.n_list), "l": list(config.l_list)},
        "grid": {"r_min": config.grid.r_min, "r_max": config.grid.r_max,
                 "n_points": config.grid.n_points},
    }


# ---------------------------------------------------------------------------
# analytic spectrum entries
# ---------------------------------------------------------------------------

def _level_record(level: EnergyLevel) -> dict:
    return {
        "branch": level.branch,
        "eps2": level.eps2,
        "energy": level.energy,
        "energy_alt": level.energy_alt,
        "residual_quantization": level.residual_quantization,
        "imag_magnitude": level.imag_magnitude,
    }


def choose_level(levels) -> EnergyLevel:
    """The physical pick: smallest |Im E|, ties resolved by branch order."""
    return min(levels, key=lambda lv: lv.imag_magnitude)


def _spectrum_entry(params, consts, n, l, variant="quadratic"):
    """The rendered entry of one state and its levels (None when singular)."""
    entry = {"n": int(n), "l": int(l), "singular": None}
    try:
        levels = energy_levels(params, consts, n, l, variant=variant)
    except SingularCoefficientError as exc:
        entry["singular"] = {"reason": str(exc)}
        return entry, None
    chosen = choose_level(levels)
    entry["branches"] = [_level_record(lv) for lv in levels]
    entry["chosen_branch"] = chosen.branch
    entry["chosen_re_energy"] = chosen.energy.real
    return entry, levels


def build_spectrum_report(config, variant="quadratic") -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectrum",
        "config": _config_echo(config),
        "variant": variant,
        "entries": [_spectrum_entry(config.params, config.consts, n, l, variant=variant)[0]
                    for l in config.l_list for n in config.n_list],
    }


# ---------------------------------------------------------------------------
# oracle report
# ---------------------------------------------------------------------------

def _spectrum_record(spec: oracle.NumericSpectrum, flagged: bool) -> dict:
    """One solver's levels; `flagged` marks a fall-to-center case."""
    notes = list(spec.notes)
    if flagged:
        notes.append("origin attraction exceeds the fall-to-center threshold; "
                     "levels depend on r_min")
    return {
        "method": spec.method,
        "energies": [e for _, e, _ in spec.levels],
        "indices": [k for k, _, _ in spec.levels],
        "node_counts": [c for _, _, c in spec.levels],
        "unreliable": flagged,
        "notes": notes,
    }


def _oracle_block(config, l, n_states):
    """The rendered FD and Numerov block of one l and its FD spectrum.

    Both solvers take the same samples of the effective potential. The
    block keeps the record of each solver that solved; where one fails,
    or the sampling does, it carries the first error instead of the cross
    deltas, and the FD spectrum returned is None unless FD solved."""
    params, consts, grid = config.params, config.consts, config.grid
    block = {"l": int(l), "n_states": n_states}
    try:
        veff = effective_potential(params, consts, l, grid.points())
    except HyperwellError as exc:
        return {**block, "error": str(exc)}, None
    flagged = fall_to_center_unreliable(params, consts, l)
    spectra, errors = {}, []
    for key, solver in (("fd", fd_spectrum), ("numerov", numerov_spectrum)):
        try:
            spectra[key] = solver(veff, consts, grid, n_states)
            block[key] = _spectrum_record(spectra[key], flagged)
        except HyperwellError as exc:
            errors.append(str(exc))
    if errors:
        block["error"] = errors[0]
    else:
        fd, nm = spectra["fd"].levels, spectra["numerov"].levels
        block["cross_delta_rel"] = [abs(fd[i][1] - nm[i][1]) / max(1.0, abs(fd[i][1]))
                                    for i in range(min(len(fd), len(nm)))]
    return block, spectra.get("fd")


def _n_states(config) -> int:
    return (max(config.n_list) + 1) if config.n_list else 0


def build_oracle_report(config) -> dict:
    n_states = _n_states(config)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "oracle",
        "config": _config_echo(config),
        "per_l": [_oracle_block(config, l, n_states)[0] for l in config.l_list],
    }


# ---------------------------------------------------------------------------
# engine diagnostics report
# ---------------------------------------------------------------------------

def nu_check_entry(params, consts, n, l, branch="plus") -> dict:
    """Printed-form deltas for the engine run at one quantization root."""
    entry = {"n": int(n), "l": int(l), "branch": branch, "singular": None}
    try:
        levels = energy_levels(params, consts, n, l)
    except SingularCoefficientError as exc:
        entry["singular"] = {"reason": str(exc)}
        return entry
    by_name = {lv.branch: lv for lv in levels}
    level = by_name.get(branch, levels[0])
    dp = dimensionless_from_eps2(params, consts, level.eps2, l)
    entry["eps2"] = level.eps2
    entry["energy"] = level.energy
    entry["diagnostics"] = closed_form_diagnostics(dp, n)[0]
    return entry


def build_nu_check_report(config, branch="plus") -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "nu-check",
        "config": _config_echo(config),
        "entries": [nu_check_entry(config.params, config.consts, n, l, branch=branch)
                    for l in config.l_list for n in config.n_list],
    }


# ---------------------------------------------------------------------------
# full validation report
# ---------------------------------------------------------------------------

def comparison_rows(analytic, numeric: oracle.NumericSpectrum) -> dict:
    """ByIndex deltas between analytic levels and an oracle spectrum.

    Analytic level n is paired with oracle level n, which is entry n: both
    solvers return level k as entry k. A level n beyond the spectrum is
    not compared. When the two lists differ in length (an analytic path
    singular at some state, or an n list that does not start at 0), a note
    names the levels compared. Each row is (n, Re E, Im E, E_numeric,
    delta_abs, delta_rel): the complex-modulus distance |E - E_numeric| and
    that distance over |E_numeric| floored at 1. This is a report; no
    agreement is asserted anywhere.
    """
    notes = []
    paired = [lv for lv in analytic if lv.n < len(numeric.levels)]
    if len(analytic) != len(numeric.levels):
        ns = [lv.n for lv in paired]
        which = (f"first {len(ns)}" if ns == list(range(len(ns)))
                 else "n = " + ", ".join(map(str, ns)))
        notes.append(
            f"length mismatch: {len(analytic)} analytic vs "
            f"{len(numeric.levels)} numeric levels; compared {which}")
    rows = []
    for lv in paired:
        e_num = float(numeric.levels[lv.n][1])
        d = abs(complex(lv.energy) - e_num)
        rows.append([lv.n, float(lv.energy.real), float(lv.energy.imag),
                     e_num, d, d / max(1.0, abs(e_num))])
    abs_d = [row[4] for row in rows] or [0.0]
    return {"matching": "ByIndex", "rows": rows,
            "max_abs_delta": max(abs_d),
            "max_rel_delta": max([row[5] for row in rows] or [0.0]),
            "mean_abs_delta": sum(abs_d) / len(abs_d),
            "notes": notes}


def _singular_limit_section(params, consts, n, l):
    """Walk a*V0 -> 0+ and record how the quantization roots behave."""
    rows = []
    for product in _SINGULAR_LIMIT_PRODUCTS:
        probe = replace(params, a=1.0, V0=product)
        try:
            levels = energy_levels(probe, consts, n, l)
            rows.append({"a_V0": product,
                         "abs_eps2": [abs(lv.eps2) for lv in levels],
                         "abs_energy": [abs(lv.energy) for lv in levels]})
        except HyperwellError as exc:
            rows.append({"a_V0": product, "error": str(exc)})
    return rows


def build_validate_report(config) -> dict:
    params, consts = config.params, config.consts
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "validate",
        "config": _config_echo(config),
        "potential": {
            "asymptote": params.asymptote,
            "origin_unreliable_per_l": {
                str(l): fall_to_center_unreliable(params, consts, l)
                for l in config.l_list},
        },
    }

    # one analytic record per state: its entry, its constant-term row and,
    # unless singular, the chosen level (kept per l in ascending n)
    entries, variants, chosen_per_l = [], [], []
    for l in config.l_list:
        chosen = []
        for n in config.n_list:
            entry, quad = _spectrum_entry(params, consts, n, l)
            entries.append(entry)
            row = {"n": int(n), "l": int(l)}
            if quad is None:
                row["error"] = entry["singular"]["reason"]
            else:
                chosen.append(choose_level(quad))
                try:
                    spec = energy_levels(params, consts, n, l, variant="spectrum")
                    row["quadratic_eps2"] = [lv.eps2 for lv in quad]
                    row["spectrum_eps2"] = [lv.eps2 for lv in spec]
                    row["max_root_delta"] = max(abs(q.eps2 - s.eps2)
                                                for q, s in zip(quad, spec))
                except HyperwellError as exc:
                    row["error"] = str(exc)
            variants.append(row)
        chosen_per_l.append(sorted(chosen, key=lambda lv: lv.n))
    any_singular = any(e["singular"] for e in entries)
    analytic_section = {"entries": entries, "constant_term_variants": variants}
    if any_singular and config.n_list and config.l_list:
        analytic_section["singular_limit"] = _singular_limit_section(
            params, consts, config.n_list[0], config.l_list[0])
    else:
        analytic_section["singular_limit"] = None
    report["analytic"] = analytic_section

    n_states = _n_states(config)
    blocks, comparison = [], []
    for l, chosen in zip(config.l_list, chosen_per_l):
        block, fd = _oracle_block(config, l, n_states)
        blocks.append(block)
        if fd is None:
            # FD failed (its error is the block's first) or never ran
            comparison.append({"l": int(l), "error": block["error"]})
        else:
            comparison.append({"l": int(l), **comparison_rows(chosen, fd)})
    report["oracle"] = {"per_l": blocks}
    report["comparison"] = {
        "row_fields": ["n", "re_analytic", "im_analytic", "e_numeric",
                       "delta_abs", "delta_rel"],
        "per_l": comparison,
    }

    cross_checks = []
    ode_rows = []
    nu_rows = []
    samples = [0.5 / params.alpha, 1.0 / params.alpha,
               2.0 / params.alpha, 4.0 / params.alpha]
    for level in (lv for chosen in chosen_per_l for lv in chosen):
        tag = {"n": level.n, "l": level.l, "branch": level.branch}
        dp = dimensionless_from_eps2(params, consts, level.eps2, level.l)
        try:
            diagnostics, engine = closed_form_diagnostics(dp, level.n)
            cross_checks.append({**tag, **engine})
            nu_rows.append({**tag, "diagnostics": diagnostics})
        except HyperwellError as exc:
            cross_checks.append({**tag, "error": str(exc)})
            nu_rows.append({**tag, "error": str(exc)})
        try:
            wf = RadialWavefunction(params, consts, level.n, level.l, dp)
            ode_rows.append({**tag, "r_samples": samples,
                             "residual": ode_residual(wf, params, consts, level.energy,
                                                      level.l, samples)})
        except HyperwellError as exc:
            ode_rows.append({**tag, "error": str(exc)})
    if any_singular and not any(chosen_per_l):
        note = "analytic path singular for every requested state"
        cross_checks.append({"note": note})
        ode_rows.append({"note": note})
        nu_rows.append({"note": note})
    report["quantization_residual_cross_check"] = cross_checks
    report["ode_residual"] = ode_rows
    report["nu_diagnostics"] = nu_rows
    return report
