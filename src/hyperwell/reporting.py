"""Machine-readable outputs: CSV documents and JSON reports.

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
)
from .errors import HyperwellError, SingularCoefficientError
from .oracle import compare_levels, fall_to_center_unreliable, fd_spectrum, numerov_spectrum
from .potential import effective_potential

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

    # ByIndex comparison: chosen analytic level n against FD level n
    n_states = _n_states(config)
    blocks, comparison = [], []
    for l, chosen in zip(config.l_list, chosen_per_l):
        block, fd = _oracle_block(config, l, n_states)
        blocks.append(block)
        if fd is None:
            # FD failed (its error is the block's first) or never ran
            comparison.append({"l": int(l), "error": block["error"]})
            continue
        rep = compare_levels(chosen, fd)
        comparison.append({
            "l": int(l), "matching": "ByIndex",
            "rows": [list(row) for row in rep.rows],
            "max_abs_delta": rep.max_abs_delta,
            "max_rel_delta": rep.max_rel_delta,
            "mean_abs_delta": rep.mean_abs_delta,
            "notes": list(rep.notes),
        })
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
