"""The validate report in-process: call budget, a partly singular case, and
the oracle block it shares with the oracle report."""

import sys
from dataclasses import replace
from pathlib import Path

from hyperwell import analytic, oracle
from hyperwell.config import parse_config
from hyperwell.reporting import build_oracle_report, build_validate_report, json_document

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
    counts = count_calls(monkeypatch, analytic.energy_levels,
                         oracle.fd_spectrum, oracle.numerov_spectrum)
    build_validate_report(load("general", n_list=(0, 1, 2), l_list=(0, 1, 2)))
    # one quadratic and one spectrum-variant call per state, one solver pair per l
    assert counts == {"energy_levels": 18, "fd_spectrum": 3, "numerov_spectrum": 3}


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
