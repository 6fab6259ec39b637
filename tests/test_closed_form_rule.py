"""One rule for every closed-form failure, from the NU root to the reports.

A state's closed forms either evaluate, or the state is singular and the
failure's message is its reason. `spectrum`, `validate` and `nu-check`
record such a state as `singular` and exit 0, and `nu-check` records a
failing `closed_form_diagnostics` as `diagnostics: {"error": ...}`.
`wavefunction` exits 4 for every closed-form failure, its envelope
exponents included, and 3 only where R cannot be normalized.
"""

import contextlib
import functools
import io
import json
import math
import random
import re
from pathlib import Path

import jsonschema
import pytest

from hyperwell import analytic, reporting
from hyperwell.cli import main
from hyperwell.config import KEYS, parse_config
from hyperwell.errors import ConfigError, DomainError
from hyperwell.reporting import build_nu_check_report, build_spectrum_report, build_validate_report

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
JSON_COMMANDS = ("spectrum", "validate", "nu-check")
# exit codes of spectrum, validate, nu-check and wavefunction (n 0, l 1)
EXIT_CODES = {"ovf": (0, 0, 0, 4), "c0": (0, 0, 0, 4), "expo": (0, 0, 0, 4),
              "smallA": (0, 0, 0, 0)}


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
    schema = json.loads((SCHEMAS / f"{command.replace('-', '_')}.json").read_text())
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


@pytest.mark.parametrize("name", ["ovf", "c0"])
def test_singular_reason_is_the_failure_message(config_path, name):
    # every state is singular with one reason, the wavefunction's stderr
    # line, and validate still renders one oracle block per l
    path = config_path(name)
    _, _, err = run(["wavefunction", "--config", path, "--n", "0", "--l", "1"])
    reason = err.removeprefix("hyperwell: error: ").rstrip("\n")
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


def test_failing_diagnostics_are_recorded(monkeypatch, tmp_path):
    # nu-check records a failing closed_form_diagnostics in place of the
    # deltas, as validate does under nu_check; here k of the NU problem
    # overflows at the plus root of n 0, l 1
    path = tmp_path / "k_overflow.cfg"
    path.write_text("potential.V1 = 0.7\npotential.a = -0.7\npotential.V0 = -2.5e102\n")
    argv = ["--config", str(path), "--n", "0", "--l", "1"]
    entry, = entries(checked(run(["nu-check", *argv])[1], "nu-check"))
    assert entry["singular"] is None
    assert entry["diagnostics"] == {"error": "radicand_coeffs: k must be finite"}

    # validate takes the minus root there, whose diagnostics evaluate
    def fail(dp, n):
        raise DomainError("closed_form_diagnostics: failed")

    monkeypatch.setattr(reporting, "closed_form_diagnostics", fail)
    state, = entries(checked(run(["validate", *argv])[1], "validate"))
    assert state["singular"] is None and state["chosen_branch"] == "minus"
    assert state["nu_check"] == {"error": "closed_form_diagnostics: failed"}


def test_small_beta_takes_the_engine_root():
    # the radicand's square root needs no threshold: no state of smallA at
    # n, l 0..2 fails in the NU engine
    config = parse_config(INPUTS["smallA"] + "state.n = 0..2\nstate.l = 0..2\n")
    assert all("error" not in state["nu_check"]
               for state in build_validate_report(config)["states"])
    for branch in ("plus", "minus"):
        assert all("error" not in entry["diagnostics"]
                   for entry in build_nu_check_report(config, branch=branch)["entries"])


def test_linear_quantization_equation_is_singular(monkeypatch, config_path):
    # c2 = 0 leaves one root; the state is singular instead of carrying it
    real = analytic.quantization_coefficients

    def linear(*args, **kwargs):
        return (0.0, *real(*args, **kwargs)[1:])

    monkeypatch.setattr(analytic, "quantization_coefficients", linear)
    reason = {"reason": "energy_levels: c2 = 0 leaves no quadratic in eps^2"}
    config = parse_config(INPUTS["smallA"] + "state.n = 0..1\nstate.l = 0\n")
    for doc in (build_spectrum_report(config), build_spectrum_report(config, "spectrum"),
                build_nu_check_report(config, branch="minus"), build_validate_report(config)):
        assert [e["singular"] for e in entries(doc)] == [reason] * 2
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
    parsed = infinite_asymptotes = 0
    for text in fuzz_configs():
        try:
            config = parse_config(text)
        except ConfigError:
            continue
        parsed += 1
        path.write_text(text)
        for command, states in (("spectrum", "0..1"), ("validate", "0..1"), ("nu-check", "0")):
            code, out, err = run([command, "--config", str(path), "--n", states, "--l", "0..1"])
            assert (code, err) == (0, ""), text
            if command == "validate" and math.isinf(config.params.asymptote):
                # an overflowing C - A still renders as Infinity, an open
                # fault; every other token of the document stays checked
                infinite_asymptotes += 1
                out = out.replace('"asymptote": Infinity,', '"asymptote": 0,', 1)
            checked(out, command)
        code, _, err = run(["wavefunction", "--config", str(path), "--n", "0", "--l", "1"])
        assert code in (0, 4) or (code == 3 and "normalization" in err), (text, code, err)
    assert (parsed, infinite_asymptotes) == (92, 1)
