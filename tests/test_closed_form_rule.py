"""One rule for every closed-form failure, from the NU root to the reports.

A state's closed forms either evaluate, or the state is singular and the
failure's message is its reason. `spectrum` and `validate` record such
a state as `singular` and exit 0, and `validate` records a failing
`closed_form_diagnostics` as `nu_check: {"error": ...}`.
`wavefunction` exits 4 for every closed-form failure, its envelope
exponents included, and 3 only where R cannot be normalized.
"""

import contextlib
import functools
import io
import json
import random
import re
from pathlib import Path

import jsonschema
import pytest

from hyperwell import analytic
from hyperwell.analytic import closed_form_diagnostics, energy_levels
from hyperwell.cli import main
from hyperwell.config import KEYS, parse_config
from hyperwell.errors import ConfigError, DomainError, SingularCoefficientError
from hyperwell.reporting import build_spectrum_report, build_validate_report, json_document

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "hyperwell" / "schemas"

# unlisted keys keep their config.KEYS defaults
INPUTS = {
    # beta^2 = a V0/(s alpha^2) overflows
    "ovf": "potential.alpha = 1e-150\npotential.V0 = 1e10\ngrid.r_min = 1\n",
    # the quantization quadratic's c0 overflows
    "c0": "potential.b = 2.5\npotential.V1 = 7e210\npotential.V2 = -0.3\n",
    # the quantization roots overflow to inf and nan, so every state is
    # singular before its envelope exponents or NU triple are formed
    "expo": "potential.alpha = 0.7\npotential.a = 700\npotential.V0 = 1e274\n",
    # |a V0| = 1e-6: the radicand's c2 is tiny beside c0, yet a perfect square
    "smallA": "potential.V0 = 1e-6\n",
}
STATES = ["--n", "0..2", "--l", "0..2"]
JSON_COMMANDS = ("spectrum", "validate")
# exit codes of spectrum, validate and wavefunction (n 0, l 1)
EXIT_CODES = {"ovf": (0, 0, 4), "c0": (0, 0, 4), "expo": (0, 0, 4), "smallA": (0, 0, 0)}


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def refuse(token):
    raise ValueError(f"non-JSON constant {token}")


@functools.cache
def validator(command):
    schema = json.loads((SCHEMAS / f"{command}.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def checked(text, command):
    """The document, checked against its schema; NaN and Infinity tokens
    are refused."""
    doc = json.loads(text, parse_constant=refuse)
    validator(command).validate(doc)
    return doc


def entries(doc):
    return doc["states" if doc["kind"] == "validate" else "entries"]


@pytest.fixture
def config_path(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.cfg"
        path.write_text(INPUTS[name])
        return str(path)
    return write


@pytest.mark.parametrize("name", INPUTS)
def test_exit_codes(config_path, name):
    path = config_path(name)
    codes = []
    for command in JSON_COMMANDS:
        code, out, err = run([command, "--config", path, *STATES])
        codes.append(code)
        assert err == ""
        checked(out, command)
    code, out, err = run(["wavefunction", "--config", path, "--n", "0", "--l", "1"])
    codes.append(code)
    assert tuple(codes) == EXIT_CODES[name]
    if code == 4:
        assert out == "" and err.startswith("hyperwell: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, reason", [
    ("ovf", "beta^2 = a V0/(s alpha^2) = inf is not finite"),
    ("c0", "energy_levels: the quantization coefficient c0 = (nan+infj) is not finite"),
], ids=["ovf", "c0"])
def test_singular_reason_is_the_failure_message(config_path, name, reason):
    # every state is singular with one reason, which names the closed-form
    # quantity that is not finite and is the wavefunction's stderr line, and
    # validate still renders one oracle block per l
    path = config_path(name)
    _, _, err = run(["wavefunction", "--config", path, "--n", "0", "--l", "1"])
    assert err == f"hyperwell: error: {reason}\n"
    for command in JSON_COMMANDS:
        doc = checked(run([command, "--config", path, *STATES])[1], command)
        assert [e["singular"] for e in entries(doc)] == [{"reason": reason}] * 9
        if command == "validate":
            assert [block["l"] for block in doc["oracle"]["per_l"]] == [0, 1, 2]
            assert all(list(state) == ["n", "l", "singular"] for state in doc["states"])


@pytest.mark.parametrize("text", [INPUTS["expo"], "potential.b = -0.3e139\n"])
def test_root_that_does_not_evaluate_is_singular(tmp_path, text):
    # a non-finite eps^2, E or residual makes the state singular, and the
    # reason names the root; no document carries a NaN or Infinity token
    path = tmp_path / "roots.cfg"
    path.write_text(text)
    reason = re.compile(r"energy_levels: the (plus|minus) root does not evaluate: eps\^2 = ")
    for command in JSON_COMMANDS:
        doc = checked(run([command, "--config", str(path), *STATES])[1], command)
        assert len(entries(doc)) == 9
        assert all(reason.match(e["singular"]["reason"]) for e in entries(doc))
    code, out, err = run(["wavefunction", "--config", str(path), "--n", "0", "--l", "1"])
    assert (code, out) == (4, "") and reason.match(err.removeprefix("hyperwell: error: "))


def test_failing_diagnostics_are_recorded(tmp_path):
    # validate records a failing closed_form_diagnostics in place of the
    # deltas; here k of the NU problem overflows at the minus root, which
    # every state chooses
    path = tmp_path / "k_overflow.cfg"
    path.write_text("potential.V0 = 0.25\npotential.V1 = -0.7\nconstants.mass = 1e154\n")
    code, out, err = run(["validate", "--config", str(path), "--n", "0..2", "--l", "0"])
    assert (code, err) == (0, "")
    assert [(state["singular"], state["chosen_branch"], state["nu_check"])
            for state in entries(checked(out, "validate"))] == [
        (None, "minus", {"error": "radicand_coeffs: k must be finite"})] * 3

    # k overflows at the plus root of n 0, l 1 here; validate takes the
    # minus root, so only the engine itself reaches the failure
    config = parse_config("potential.V1 = 0.7\npotential.a = -0.7\npotential.V0 = -2.5e102\n")
    plus, minus = energy_levels(config.params, config.consts, 0, 1)
    with pytest.raises(DomainError, match="radicand_coeffs: k must be finite"):
        closed_form_diagnostics(plus.dp, 0)
    closed_form_diagnostics(minus.dp, 0)


def test_small_beta_takes_the_engine_root():
    # the radicand's square root needs no threshold: no state of smallA at
    # n, l 0..2 fails in the NU engine, at either root
    config = parse_config(INPUTS["smallA"] + "state.n = 0..2\nstate.l = 0..2\n")
    assert all("error" not in state["nu_check"]
               for state in build_validate_report(config)["states"])
    for l in config.l_list:
        for n in config.n_list:
            for level in energy_levels(config.params, config.consts, n, l):
                closed_form_diagnostics(level.dp, n)


def test_overflowing_asymptote_is_null():
    # C - A = -inf at this a V0; validate renders it as null, strict JSON
    config = parse_config("potential.a = -2.5e223\npotential.V0 = -2.5e257\n"
                          "grid.n_points = 200\nstate.n = 0\nstate.l = 0\n")
    doc = checked(json_document(build_validate_report(config)), "validate")
    assert doc["potential"]["asymptote"] is None


def test_linear_quantization_equation_is_singular(monkeypatch, config_path):
    # c2 = 0 leaves one root; the state is singular instead of carrying it
    real = analytic.quantization_coefficients

    def linear(*args, **kwargs):
        return (0.0, *real(*args, **kwargs)[1:])

    monkeypatch.setattr(analytic, "quantization_coefficients", linear)
    reason = {"reason": "energy_levels: c2 = 0 leaves no quadratic in eps^2"}
    config = parse_config(INPUTS["smallA"] + "state.n = 0..1\nstate.l = 0\n")
    for doc in (build_spectrum_report(config), build_validate_report(config)):
        assert [e["singular"] for e in entries(doc)] == [reason] * 2
    with pytest.raises(SingularCoefficientError, match=re.escape(reason["reason"])):
        energy_levels(config.params, config.consts, 0, 0, variant="spectrum")
    assert run(["wavefunction", "--config", config_path("smallA"), "--n", "0", "--l", "0"]) == (
        4, "", f"hyperwell: error: {reason['reason']}\n")


def fuzz_configs(count=150, seed=34):
    """Seeded config texts: 1-4 potential or constants keys set to
    +-{1, 2.5, 0.3, 0.7} 10^e, e = 0 or uniform in -20..20 or -300..300,
    on a 200-point grid."""
    rng = random.Random(seed)
    keys = [key for key in KEYS if key.startswith(("potential.", "constants."))]
    for _ in range(count):
        lines = []
        for key in rng.sample(keys, rng.randint(1, 4)):
            e = rng.choice((0, rng.randint(-20, 20), rng.randint(-300, 300)))
            lines.append(f"{key} = {rng.choice('+-')}{rng.choice((1, 2.5, 0.3, 0.7))}e{e}\n")
        yield "".join(lines) + "grid.n_points = 200\n"


def test_closed_form_fuzz(tmp_path):
    # warnings are errors (pytest's filterwarnings); the JSON commands exit
    # 0 with a strict-JSON document that meets its schema, and wavefunction
    # exits 0, 4, or 3 naming the normalization
    path = tmp_path / "fuzz.cfg"
    parsed = 0
    for text in fuzz_configs():
        try:
            parse_config(text)
        except ConfigError:
            continue
        parsed += 1
        path.write_text(text)
        for command in JSON_COMMANDS:
            code, out, err = run([command, "--config", str(path), "--n", "0..1", "--l", "0..1"])
            assert (code, err) == (0, ""), text
            checked(out, command)
        code, _, err = run(["wavefunction", "--config", str(path), "--n", "0", "--l", "1"])
        assert code in (0, 4) or (code == 3 and "normalization" in err), (text, code, err)
    assert parsed == 92
