"""The reports in-process: the validate and nu-check call budgets, the
level-n pairing of comparison rows, a partly singular case and the oracle
block validate shares with the oracle report, and the CSV and JSON
renderers against per-row and recursive-walk references. An oracle block
keeps each solver that solved beside the other's error."""

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
from hyperwell.errors import ConvergenceError
from hyperwell.potential import PhysicalConstants, scan_series
from hyperwell.reporting import (
    build_nu_check_report,
    build_oracle_report,
    build_spectrum_report,
    build_validate_report,
    comparison_rows,
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
                         nu.enumerate_branches, nu.k_candidates, nu.pi_tau_select,
                         oracle.fd_spectrum, oracle.numerov_spectrum,
                         potential.effective_potential)
    build_validate_report(load("general", n_list=(0, 1, 2), l_list=(0, 1, 2)))
    # one quadratic and one spectrum-variant call per state, one engine pass
    # (triple, branch enumeration, selection) per state, one solver pair per
    # l on one sampling of V_eff
    assert counts == {"energy_levels": 18, "nu_problem": 9, "enumerate_branches": 9,
                      "k_candidates": 9, "pi_tau_select": 9,
                      "fd_spectrum": 3, "numerov_spectrum": 3, "effective_potential": 3}


def test_nu_check_call_budget(monkeypatch):
    counts = count_calls(monkeypatch, nu.enumerate_branches, nu.k_candidates,
                         nu.pi_tau_select)
    build_nu_check_report(load("general", n_list=(0, 1, 2), l_list=(0, 1, 2)))
    # one branch enumeration and one selection per state
    assert counts == {"enumerate_branches": 9, "k_candidates": 9, "pi_tau_select": 9}


def test_validate_pairs_level_n_with_oracle_level_n():
    # an n list that does not start at 0 still meets FD level n, entry n
    for n_list in ((1, 2), (2,)):
        doc = build_validate_report(load("general", n_list=n_list, l_list=(0,)))
        fd = doc["oracle"]["per_l"][0]["fd"]["energies"]
        comparison = doc["comparison"]["per_l"][0]
        assert [row[0] for row in comparison["rows"]] == list(n_list)
        assert [row[3] for row in comparison["rows"]] == [fd[n] for n in n_list]
        names = ", ".join(map(str, n_list))
        assert comparison["notes"] == [
            f"length mismatch: {len(n_list)} analytic vs 3 numeric levels; compared n = {names}"]


class FakeLevel:
    def __init__(self, n, energy):
        self.n = n
        self.energy = energy


# the two lowest box levels, pi^2 and 4 pi^2, as an FD spectrum
BOX = oracle.NumericSpectrum("FiniteDifference", ((0, 9.8696, 0), (1, 39.478, 1)),
                             (), np.zeros(2))


def test_comparison_by_index_deltas():
    comparison = comparison_rows([FakeLevel(0, complex(math.pi**2, 0.1)),
                                  FakeLevel(1, complex(4 * math.pi**2, -0.2))], BOX)
    assert comparison["matching"] == "ByIndex" and comparison["notes"] == []
    assert len(comparison["rows"]) == 2
    for row in comparison["rows"]:
        assert row[4] >= abs(row[2])  # modulus delta includes the imag part
    assert comparison["max_abs_delta"] >= comparison["mean_abs_delta"]


def test_comparison_length_mismatch_noted():
    comparison = comparison_rows([FakeLevel(0, complex(9.8, 0.0))], BOX)
    assert len(comparison["rows"]) == 1
    assert comparison["notes"] == [
        "length mismatch: 1 analytic vs 2 numeric levels; compared first 1"]


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
    rows = doc["comparison"]["per_l"][0]["rows"]
    assert [row[3] for row in rows] == block["fd"]["energies"]

    # a failing FD leaves Numerov's record and nothing to compare against
    def failing(*args):
        raise ConvergenceError("fd_spectrum: no levels")

    monkeypatch.setattr("hyperwell.reporting.fd_spectrum", failing)
    doc = build_validate_report(config)
    block = doc["oracle"]["per_l"][0]
    assert list(block) == ["l", "n_states", "numerov", "error"]
    assert block["error"] == "fd_spectrum: no levels"
    assert doc["comparison"]["per_l"][0] == {"l": 0, "error": "fd_spectrum: no levels"}


def test_validate_partly_singular():
    # gamma^2 = (2m/hbar^2 alpha^2)(c V2 - b V1 - alpha^2 l(l+1)) = 2 - l(l+1): zero at l = 1
    config = parse_config("\n".join([
        "potential.a = 1", "potential.V0 = 1", "potential.b = 0", "potential.c = 2",
        "potential.V2 = 1", "potential.d = 0", "potential.alpha = 1",
        "state.n = 0..1", "state.l = 0..1"]))
    doc = build_validate_report(config)
    analytic_section = doc["analytic"]
    for entry, row in zip(analytic_section["entries"],
                          analytic_section["constant_term_variants"]):
        assert (entry["n"], entry["l"]) == (row["n"], row["l"])
        if entry["l"] == 1:
            assert "gamma = 0" in entry["singular"]["reason"]
            assert row["error"] == entry["singular"]["reason"]
        else:
            assert entry["singular"] is None and "error" not in row
    assert [e["l"] for e in analytic_section["entries"]] == [0, 0, 1, 1]
    assert isinstance(analytic_section["singular_limit"], list)
    assert len(analytic_section["singular_limit"]) == 8
    l1 = doc["comparison"]["per_l"][1]
    assert l1["l"] == 1 and l1["rows"] == []
    assert any("length mismatch: 0 analytic vs 2 numeric levels" in note
               for note in l1["notes"])
    for key in ("ode_residual", "nu_diagnostics", "quantization_residual_cross_check"):
        assert len(doc[key]) == 2
        assert all(row["l"] == 0 for row in doc[key])

    # validate renders the same oracle block as the oracle report
    for name in ("general", "rosen_morse", "poschl_teller", "scarf"):
        config = load(name)
        assert (json_document(build_validate_report(config)["oracle"]["per_l"])
                == json_document(build_oracle_report(config)["per_l"]))


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
    values = radial_wavefunction(config.params, config.consts, level)(r)
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
                build_spectrum_report(config), build_nu_check_report(config)):
        expected = json.dumps(reference_jsonable(doc), indent=2, ensure_ascii=False) + "\n"
        assert json_document(doc) == expected


def test_json_refuses_other_values():
    with pytest.raises(TypeError):
        json_document({"x": object()})
