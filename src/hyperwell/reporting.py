"""Every document a command prints: the potential, effective-potential and
wavefunction CSVs and the JSON reports.

All emitters are deterministic: identical inputs produce byte-identical
output. Timestamps never appear in data; an optional stamp line goes into
`#` comments only.

CSV cells: 9 significant digits (`{:.9g}`); an empty cell where a term is
non-finite (a `scan_series` gap) and where |R|^2 overflows; `nan` printed
as is. JSON keeps full
double precision, and a complex number renders as {"re": ..., "im": ...}.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import asdict, replace

import numpy as np

from . import oracle
from .analytic import (
    EnergyLevel,
    RadialWavefunction,
    closed_form_diagnostics,
    energy_levels,
    ode_residual,
    radial_wavefunction,
)
from .errors import ConfigError, HyperwellError, SingularCoefficientError
from .exact import fall_to_center_unreliable
from .oracle import fd_spectrum, numerov_spectrum
from .potential import KINDS, effective_potential, scan_series, with_gaps

SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# primitive formatting
# ---------------------------------------------------------------------------

def fmt_number(x) -> str:
    """One CSV cell: 9 significant digits, empty cell for a gap."""
    return "" if x is None else f"{x:.9g}"


def csv_document(header, columns, head_comments=(), tail_comments=()) -> str:
    """Comma-separated document with LF endings and '#' comment lines.

    `columns` holds one sequence of numbers per header field, with None
    for a gap; columns of unequal length raise ValueError. A row is one
    `%` format call (`"%.9g" % x` is `fmt_number(x)` for every number);
    only a row with a gap, which `%` refuses, goes cell by cell.
    """
    if len(columns) != len(header):
        raise ValueError(f"expected {len(header)} columns, got {len(columns)}")
    row_fmt = ",".join(["%.9g"] * len(columns))
    lines = [f"# {c}" for c in head_comments]
    lines.append(",".join(header))
    for row in zip(*columns, strict=True):
        try:
            lines.append(row_fmt % row)
        except TypeError:
            lines.append(",".join(map(fmt_number, row)))
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
    """V of the potential block as the special case `kind` of KINDS, one
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
    root `branch`; raises SingularCoefficientError where the closed forms
    or the envelope exponents do not evaluate."""
    if len(config.n_list) != 1:
        raise ConfigError(f"wavefunction needs a single n, got {list(config.n_list)}")
    if len(config.l_list) != 1:
        raise ConfigError(f"wavefunction needs a single l, got {list(config.l_list)}")
    n, l = config.n_list[0], config.l_list[0]
    level = {lv.branch: lv for lv in energy_levels(config.params, config.consts, n, l)}[branch]
    wf = radial_wavefunction(config.params, level)
    r = config.grid.points()
    values = wf(r)
    with np.errstate(over="ignore"):  # |R|^2 is inf where |R| passes 1e154
        abs_sq = abs(values) ** 2
    columns = [r.tolist(), values.real.tolist(), values.imag.tolist(),
               with_gaps(abs_sq, np.isinf(abs_sq))]
    energy = level.energy
    tail = [
        f"n = {n}, l = {l}, branch = {level.branch}",
        f"energy = {fmt_number(energy.real)} {'-' if energy.imag < 0 else '+'} "
        f"{fmt_number(abs(energy.imag))}i",
        f"N = {fmt_number(wf.norm_constant)}",
        f"norm_integral = {fmt_number(wf.norm_integral)} over "
        f"[{fmt_number(wf.norm_window[0])}, {fmt_number(wf.norm_window[1])}]",
    ]
    return csv_document(["r", "Re_R", "Im_R", "abs_R_sq"], columns,
                        tail_comments=_comments(tail, stamp))


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------

def _header(kind, config) -> dict:
    """The fields every JSON report opens with: its schema version, its
    kind and the config it ran on."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "config": {
        "potential": asdict(config.params), "constants": asdict(config.consts),
        "state": {"n": list(config.n_list), "l": list(config.l_list)},
        "grid": asdict(config.grid)}}


# ---------------------------------------------------------------------------
# analytic spectrum entries
# ---------------------------------------------------------------------------

def _level_record(level: EnergyLevel) -> dict:
    return {
        "branch": level.branch,
        "eps2": level.dp.eps2,
        "energy": level.energy,
        "residual_quantization": level.residual_quantization,
    }


def choose_level(levels) -> EnergyLevel:
    """The physical pick: smallest |Im E|, ties resolved by branch order."""
    return min(levels, key=lambda lv: abs(lv.energy.imag))


def _spectrum_entry(params, consts, n, l, variant="quadratic"):
    """The rendered entry of one state and its levels (None when singular)."""
    entry = {"n": int(n), "l": int(l), "singular": None}
    try:
        levels = energy_levels(params, consts, n, l, variant=variant)
    except SingularCoefficientError as exc:
        return {**entry, "singular": {"reason": str(exc)}}, None
    entry["branches"] = [_level_record(lv) for lv in levels]
    entry["chosen_branch"] = choose_level(levels).branch
    return entry, levels


def build_spectrum_report(config, variant="quadratic") -> dict:
    return {
        **_header("spectrum", config),
        "variant": variant,
        "entries": [_spectrum_entry(config.params, config.consts, n, l, variant=variant)[0]
                    for l in config.l_list for n in config.n_list],
    }


# ---------------------------------------------------------------------------
# oracle report
# ---------------------------------------------------------------------------

def _spectrum_record(spec: oracle.NumericSpectrum, flagged: bool) -> dict:
    """One solver's levels; `flagged` marks a fall-to-center case, whose
    levels depend on r_min."""
    return {
        "energies": list(spec.energies),
        "indices": list(range(len(spec.energies))),
        "node_counts": list(spec.node_counts),
        "unreliable": flagged,
        "notes": list(spec.notes),
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
        block["cross_delta_rel"] = [
            abs(e_fd - e_nm) / max(1.0, abs(e_fd))
            for e_fd, e_nm in zip(spectra["fd"].energies, spectra["numerov"].energies)]
    return block, spectra.get("fd")


def _n_states(config) -> int:
    return (max(config.n_list) + 1) if config.n_list else 0


def build_oracle_report(config) -> dict:
    n_states = _n_states(config)
    return {
        **_header("oracle", config),
        "per_l": [_oracle_block(config, l, n_states)[0] for l in config.l_list],
    }


# ---------------------------------------------------------------------------
# engine diagnostics report
# ---------------------------------------------------------------------------

def nu_check_entry(params, consts, n, l, branch="plus") -> dict:
    """Printed-form deltas for the engine run at one quantization root; a
    failure carries its error in place of the deltas."""
    entry = {"n": int(n), "l": int(l), "branch": branch, "singular": None}
    try:
        level = {lv.branch: lv for lv in energy_levels(params, consts, n, l)}[branch]
    except SingularCoefficientError as exc:
        return {**entry, "singular": {"reason": str(exc)}}
    entry.update(eps2=level.dp.eps2, energy=level.energy)
    try:
        entry["diagnostics"] = closed_form_diagnostics(level.dp, n)[0]
    except HyperwellError as exc:
        entry["diagnostics"] = {"error": str(exc)}
    return entry


def build_nu_check_report(config, branch="plus") -> dict:
    return {
        **_header("nu-check", config),
        "entries": [nu_check_entry(config.params, config.consts, n, l, branch=branch)
                    for l in config.l_list for n in config.n_list],
    }


# ---------------------------------------------------------------------------
# full validation report
# ---------------------------------------------------------------------------

def _state_record(params, consts, n, l, fd, r_samples) -> dict:
    """One requested state: its spectrum entry and, unless singular, the
    spectrum-variant roots, the distance of the chosen level from FD level
    n, the engine check with the NU diagnostics and the ODE residual at
    r_samples, which the document renders once.

    The distance is |E - E_FD[n]|, a complex modulus, and that over
    |E_FD[n]| floored at 1; it is left out where FD has no level n. A
    quantity that fails carries its error in place of its values. This is
    a report; no agreement is asserted anywhere.
    """
    record, quad = _spectrum_entry(params, consts, n, l)
    if quad is None:
        return record
    try:
        spec = energy_levels(params, consts, n, l, variant="spectrum")
        record["spectrum_variant"] = {
            "eps2": [lv.dp.eps2 for lv in spec],
            "max_root_delta": max(abs(q.dp.eps2 - s.dp.eps2) for q, s in zip(quad, spec))}
    except HyperwellError as exc:
        record["spectrum_variant"] = {"error": str(exc)}
    level = choose_level(quad)
    if fd is not None and n < len(fd.energies):
        e_fd = fd.energies[n]
        delta = abs(complex(level.energy) - e_fd)
        record["fd_delta_abs"] = delta
        record["fd_delta_rel"] = delta / max(1.0, abs(e_fd))
    try:
        diagnostics, engine = closed_form_diagnostics(level.dp, n)
        record["nu_check"] = {**engine, "diagnostics": diagnostics}
    except HyperwellError as exc:
        record["nu_check"] = {"error": str(exc)}
    try:
        wf = RadialWavefunction(params, n, level.dp)
        record["ode_residual"] = {
            "residual": ode_residual(wf, params, consts, level.energy, l, r_samples)}
    except HyperwellError as exc:
        record["ode_residual"] = {"error": str(exc)}
    return record


def build_validate_report(config) -> dict:
    """One record per requested state (l outer, n inner) beside the per-l
    oracle blocks that the oracle report renders too; r_samples holds the
    radii of every state's ODE residual."""
    params, consts = config.params, config.consts
    n_states = _n_states(config)
    solved = [_oracle_block(config, l, n_states) for l in config.l_list]
    r_samples = [k / params.alpha for k in (0.5, 1.0, 2.0, 4.0)]
    return {
        **_header("validate", config),
        "potential": {
            "asymptote": params.asymptote,
            "origin_unreliable_per_l": {
                str(l): fall_to_center_unreliable(params, consts, l)
                for l in config.l_list},
        },
        "r_samples": r_samples,
        "states": [_state_record(params, consts, n, l, fd, r_samples)
                   for l, (_, fd) in zip(config.l_list, solved) for n in config.n_list],
        "oracle": {"per_l": [block for block, _ in solved]},
    }
