"""The reports in-process: the validate call budget, the
level-n pairing of validate's state records, each record against direct
calls, a partly singular case and the oracle block validate shares with
the oracle report, and the CSV and JSON renderers against per-row and
recursive-walk references. An oracle block keeps each solver that solved
beside the other's error."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hyperwell import analytic, nu, oracle, potential
from hyperwell.analytic import energy_levels, radial_wavefunction
from hyperwell.config import parse_config
from hyperwell.errors import ConvergenceError, SingularCoefficientError
from hyperwell.exact import eckart_state, fall_to_center_unreliable, surrogate_level
from hyperwell.potential import PhysicalConstants, dimensionless, scan_series
from hyperwell.reporting import (
    build_oracle_report,
    build_spectrum_report,
    build_validate_report,
    csv_document,
    fmt_number,
    json_document,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def count_calls(monkeypatch, *funcs):
    """Wrap each function in every hyperwell module that binds it; returns
    the live call counts by function name."""
    counts = {}
    for fn in funcs:
        counts[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hyperwell" or name.startswith("hyperwell.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def load(name, **states):
    config = parse_config((CONFIGS / f"{name}.cfg").read_text())
    return replace(config, **states)


def test_validate_call_budget(monkeypatch):
    counts = count_calls(monkeypatch, analytic.energy_levels, analytic.nu_problem,
                         analytic.dimensionless_from_eps2,
                         nu.enumerate_branches, nu.k_candidates, nu.pi_tau_select,
                         oracle.fd_spectrum, oracle.numerov_spectrum,
                         potential.effective_potential)
    build_validate_report(load("general", n_list=(0, 1, 2), l_list=(0, 1, 2)))
    # one quadratic and one spectrum-variant call per state, each building
    # one map (its roots' maps replace eps^2 only), one engine pass
    # (triple, branch enumeration, selection) per state, one solver pair per
    # l on one sampling of V_eff
    assert counts == {"energy_levels": 18, "nu_problem": 9, "dimensionless_from_eps2": 18,
                      "enumerate_branches": 9, "k_candidates": 9, "pi_tau_select": 9,
                      "fd_spectrum": 3, "numerov_spectrum": 3, "effective_potential": 3}


def chosen_energy(state):
    """The chosen level's E of a state record."""
    chosen = next(b for b in state["branches"] if b["branch"] == state["chosen_branch"])
    return complex(chosen["energy"])


# two FD levels: |E_0| < 1, where the relative delta's floor holds, and 4 pi^2
TWO_LEVELS = oracle.NumericSpectrum("FiniteDifference", (0.5, 39.478), (0, 1), (),
                                    np.zeros(2))


def test_validate_pairs_level_n_with_oracle_level_n(monkeypatch):
    # an n list that does not start at 0 still meets FD level n, entry n
    for n_list in ((1, 2), (2,)):
        doc = build_validate_report(load("general", n_list=n_list, l_list=(0,)))
        fd = doc["oracle"]["per_l"][0]["fd"]["energies"]
        assert [state["n"] for state in doc["states"]] == list(n_list)
        for state in doc["states"]:
            assert state["fd_delta_abs"] == abs(chosen_energy(state) - fd[state["n"]])

    # the modulus includes Im E, the relative delta is floored at 1, and a
    # state past FD's levels has no delta
    monkeypatch.setattr("hyperwell.reporting.fd_spectrum", lambda *args: TWO_LEVELS)
    doc = build_validate_report(load("general", n_list=(0, 1, 2), l_list=(0,)))
    states = doc["states"]
    for state, e_fd in zip(states, (0.5, 39.478)):
        energy = chosen_energy(state)
        assert energy.imag != 0.0
        assert state["fd_delta_abs"] == abs(energy - e_fd) > abs(energy.real - e_fd)
        assert state["fd_delta_rel"] == state["fd_delta_abs"] / max(1.0, e_fd)
    assert "fd_delta_abs" not in states[2] and "fd_delta_rel" not in states[2]


def test_oracle_block_keeps_the_solver_that_solved(monkeypatch):
    config = load("general", n_list=(0, 1, 2), l_list=(0,))
    block = build_oracle_report(config)["per_l"][0]
    assert list(block) == ["l", "n_states", "fd", "numerov", "cross_delta_rel"]

    # past fall to center (mass 500) Numerov refuses the grid while FD
    # solves; validate still compares against FD
    heavy = replace(config, consts=PhysicalConstants(hbar=1.0, mass=500.0))
    doc = build_validate_report(heavy)
    block = doc["oracle"]["per_l"][0]
    assert list(block) == ["l", "n_states", "fd", "error"]
    assert block["error"].startswith("numerov_spectrum: the sweep has 1998 nodes")
    assert block["fd"]["node_counts"] == [0, 1, 2]
    fd = block["fd"]["energies"]
    assert [state["fd_delta_abs"] for state in doc["states"]] == [
        abs(chosen_energy(state) - fd[state["n"]]) for state in doc["states"]]

    # a failing FD leaves Numerov's record and nothing to compare against
    def failing(*args):
        raise ConvergenceError("fd_spectrum: no levels")

    monkeypatch.setattr("hyperwell.reporting.fd_spectrum", failing)
    doc = build_validate_report(config)
    block = doc["oracle"]["per_l"][0]
    assert list(block) == ["l", "n_states", "numerov", "error"]
    assert block["error"] == "fd_spectrum: no levels"
    assert not any("fd_delta_abs" in state for state in doc["states"])


# gamma^2 = (2m/hbar^2 alpha^2)(c V2 - b V1 - alpha^2 l(l+1)) = 2 - l(l+1): zero at l = 1
PARTLY_SINGULAR = "\n".join([
    "potential.a = 1", "potential.V0 = 1", "potential.b = 0", "potential.c = 2",
    "potential.V2 = 1", "potential.d = 0", "potential.alpha = 1",
    "state.n = 0..1", "state.l = 0..1"])


def test_validate_partly_singular():
    config = parse_config(PARTLY_SINGULAR)
    doc = build_validate_report(config)
    states = doc["states"]
    for state in states:
        if state["l"] == 1:
            assert "gamma = 0" in state["singular"]["reason"]
            # a singular state holds its entry alone
            assert list(state) == ["n", "l", "singular"]
        else:
            assert state["singular"] is None and "error" not in state["spectrum_variant"]
            for key in ("nu_check", "ode_residual"):
                assert "error" not in state[key]
    assert [(state["n"], state["l"]) for state in states] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    # FD solved l = 1, but no singular state is compared with it
    assert doc["oracle"]["per_l"][1]["fd"]["indices"] == [0, 1]
    assert [("fd_delta_abs" in state) for state in states] == [True, True, False, False]

    # validate renders the same oracle block as the oracle report
    for name in ("general", "rosen_morse", "poschl_teller", "scarf"):
        config = load(name)
        assert (json_document(build_validate_report(config)["oracle"]["per_l"])
                == json_document(build_oracle_report(config)["per_l"]))


@pytest.mark.parametrize("config", [
    load("general", n_list=(0, 1, 2), l_list=(0, 1, 2)),
    parse_config(PARTLY_SINGULAR),
    load("general", n_list=(2, 1), l_list=(1,)),
    load("eckart_bound", n_list=(0, 1, 2), l_list=(0, 1, 2)),
], ids=["general", "partly-singular", "n-2,1-l-1", "eckart-bound"])
def test_states_equal_direct_calls(config):
    params, consts = config.params, config.consts
    doc = json.loads(json_document(build_validate_report(config)))
    fd = {block["l"]: block["fd"]["energies"] for block in doc["oracle"]["per_l"]}
    # every state's ODE residual is taken at the document's one r_samples list
    r = [k / params.alpha for k in (0.5, 1.0, 2.0, 4.0)]
    assert doc["r_samples"] == r
    assert [(state["n"], state["l"]) for state in doc["states"]] == [
        (n, l) for l in config.l_list for n in config.n_list]
    for state in doc["states"]:
        n, l = state["n"], state["l"]
        try:
            quad = energy_levels(params, consts, n, l)
        except SingularCoefficientError as exc:
            assert state == {"n": n, "l": l, "singular": {"reason": str(exc)}}
            continue
        spec = energy_levels(params, consts, n, l, variant="spectrum")
        level = min(quad, key=lambda lv: abs(lv.energy.imag))
        dp = analytic.dimensionless_from_eps2(dimensionless(params, consts), consts.s,
                                              level.dp.eps2, l)
        diagnostics, engine = analytic.closed_form_diagnostics(dp, n)
        wf = analytic.printed_state(params, n, dp)
        delta = abs(level.energy - fd[l][n])
        want = {
            "n": n, "l": l, "singular": None,
            "branches": [{"branch": lv.branch, "eps2": lv.dp.eps2, "energy": lv.energy,
                          "residual_quantization": lv.residual_quantization}
                         for lv in quad],
            "chosen_branch": level.branch,
            "spectrum_variant": {"eps2": [lv.dp.eps2 for lv in spec],
                                 "max_root_delta": max(abs(q.dp.eps2 - s.dp.eps2)
                                                       for q, s in zip(quad, spec))},
            "fd_delta_abs": delta,
            "fd_delta_rel": delta / max(1.0, abs(fd[l][n])),
            "nu_check": {**engine, "diagnostics": diagnostics},
            "ode_residual": {"residual": analytic.ode_residual(
                wf, params, consts, level.energy, l, r)},
        }
        m = dimensionless(params, consts)
        if not fall_to_center_unreliable(m, l) and surrogate_level(m, n, l).bound:
            want["fidelity"] = {"value": analytic.fidelity(eckart_state(m, n, l), wf)}
        assert state == reference_jsonable(want)


# validate at n, l 0..2: each config's (n, l) -> fidelity of the chosen
# printed state to the exact Eckart state, for exactly its surrogate-bound
# states; on FAULT the values are pinned to 1e-7 relative
FIDELITY_STATES = {
    "eckart_bound": {(0, 0): 0.19046841, (1, 0): 0.19183811, (0, 1): 0.25931456,
                     (1, 1): 0.07601866, (0, 2): 0.20057745},
    "barrier_well": {(0, 0): None, (1, 0): None, (0, 1): None, (0, 2): None},
    "barrier_well_alpha1": {(0, 0): None, (0, 1): None},
    "general": {},
}


@pytest.mark.parametrize("name", FIDELITY_STATES)
def test_fidelity_on_surrogate_bound_states_only(name):
    config = load(name, n_list=(0, 1, 2), l_list=(0, 1, 2))
    doc = json.loads(json_document(build_validate_report(config)))
    got = {(s["n"], s["l"]): s["fidelity"]["value"] for s in doc["states"] if "fidelity" in s}
    want = FIDELITY_STATES[name]
    assert sorted(got) == sorted(want)
    for key, value in got.items():
        assert 0.0 < value < 1.0
        if want[key] is not None:
            assert value == pytest.approx(want[key], rel=1e-7), key


def test_printed_state_built_once_per_state(monkeypatch):
    # the ODE residual and the fidelity share the chosen level's printed state
    counts = count_calls(monkeypatch, analytic.printed_state)
    doc = build_validate_report(load("eckart_bound", n_list=(0, 1, 2), l_list=(0, 1, 2)))
    assert sum("fidelity" in s for s in doc["states"]) == 5
    assert counts == {"printed_state": 9}


def test_state_failures_keep_their_errors(monkeypatch):
    # a failing printed state is the error of both quantities it feeds; a
    # failing exact state is the fidelity's error, whatever the printed one
    def failing(text):
        def fail(*args):
            raise SingularCoefficientError(text)
        return fail

    config = load("eckart_bound", n_list=(0,), l_list=(0,))
    monkeypatch.setattr("hyperwell.reporting.printed_state", failing("printed"))
    (state,) = build_validate_report(config)["states"]
    assert state["ode_residual"] == state["fidelity"] == {"error": "printed"}
    monkeypatch.setattr("hyperwell.reporting.eckart_state", failing("exact"))
    (state,) = build_validate_report(config)["states"]
    assert (state["ode_residual"], state["fidelity"]) == ({"error": "printed"}, {"error": "exact"})
    monkeypatch.setattr("hyperwell.reporting.printed_state", analytic.printed_state)
    (state,) = build_validate_report(config)["states"]
    assert "residual" in state["ode_residual"] and state["fidelity"] == {"error": "exact"}


@pytest.mark.parametrize("name", ["general", "rosen_morse", "poschl_teller", "scarf"])
def test_validate_schema_version(name):
    # all three reports carry schema version 3 and meet their own schemas
    import jsonschema

    config = load(name)
    builders = {"spectrum": build_spectrum_report, "oracle": build_oracle_report,
                "validate": build_validate_report}
    for kind, build in builders.items():
        schema = json.loads((Path(analytic.__file__).parent / "schemas" / f"{kind}.json")
                            .read_text())
        doc = json.loads(json_document(build(config)))
        assert doc["schema_version"] == 3
        jsonschema.validate(doc, schema)
    assert list(doc) == ["schema_version", "kind", "config", "potential", "r_samples", "states",
                         "oracle"]


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def reference_cell(x):
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.9g}"


def reference_csv(header, rows, head_comments=(), tail_comments=()):
    """Row-by-row rendering, one cell at a time."""
    lines = [f"# {c}" for c in head_comments] + [",".join(header)]
    for row in rows:
        assert len(row) == len(header)
        lines.append(",".join(reference_cell(cell) for cell in row))
    lines.extend(f"# {c}" for c in tail_comments)
    return "\n".join(lines) + "\n"


def reference_jsonable(obj):
    """Recursive copy with complex numbers and numpy values made plain."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"re": z.real, "im": z.imag}
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def test_csv_columns_match_row_rendering():
    config = load("general")
    r = config.grid.points()
    level = energy_levels(config.params, config.consts, 1, 1)[0]
    values = radial_wavefunction(config.params, level)(r)
    # r = 0 lies outside the domain, so the first potential cell is a gap
    potential = scan_series(config.params, np.concatenate(([0.0], r[1:])))
    assert potential[0] is None
    columns = [r.tolist(), potential, values.real.tolist(), values.imag.tolist(),
               (np.abs(values) ** 2).tolist()]
    header = ["r", "V", "Re_R", "Im_R", "abs_R_sq"]
    rows = [[r[i], potential[i], values[i].real, values[i].imag, abs(values[i]) ** 2]
            for i in range(len(r))]
    text = csv_document(header, columns, head_comments=["head"], tail_comments=["a", "b"])
    want = reference_csv(header, rows, ["head"], ["a", "b"])
    # as lists of lines, with their ends: a failure names the first differing
    # row at once, where a character diff of two 2,000-line strings takes minutes
    assert text.splitlines(keepends=True) == want.splitlines(keepends=True)


def test_csv_cell_rules():
    text = csv_document(["x", "y"], [[None, float("nan"), -0.0, 1 / 3],
                                     [1e-300, 2.5, float("inf"), None]])
    assert text == "x,y\n,1e-300\nnan,2.5\n-0,inf\n0.333333333,\n"
    with pytest.raises(ValueError):
        csv_document(["x", "y"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        csv_document(["x", "y"], [[1.0]])
    with pytest.raises(ValueError):
        csv_document(["x", "y"], [[None, 1.0], [1.0]])  # a gap row before the short end


# nan, +-inf, -0.0, the smallest subnormal, the largest double (1.8e308) and
# a numpy float64
EDGE_CELLS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, sys.float_info.max,
              np.float64(1 / 3)]


@pytest.mark.parametrize("columns", [
    [EDGE_CELLS, EDGE_CELLS[::-1], np.array(EDGE_CELLS)],
    [[None, 1.0, 2.0], [math.inf, 0.5, None]],
    [[1.0, None, -0.0], [2.0, None, 5e-324]],
    [[], []],
], ids=["edge-values", "gaps-first-and-last-rows", "all-gap-row", "zero-rows"])
def test_csv_rows_match_per_cell_rendering(columns):
    header = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*columns))
    want = "\n".join([",".join(header), *(",".join(map(fmt_number, row)) for row in rows)])
    text = csv_document(header, columns)
    assert text == want + "\n"
    assert text == reference_csv(header, rows)


@pytest.mark.parametrize("name", ["general", "rosen_morse", "poschl_teller", "scarf"])
def test_json_matches_recursive_walk(name):
    config = load(name)
    for doc in (build_validate_report(config), build_oracle_report(config),
                build_spectrum_report(config)):
        expected = json.dumps(reference_jsonable(doc), indent=2, ensure_ascii=False) + "\n"
        assert json_document(doc) == expected


def test_json_refuses_other_values():
    with pytest.raises(TypeError):
        json_document({"x": object()})
