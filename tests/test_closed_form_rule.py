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
import random
from pathlib import Path

import jsonschema
import pytest

from hyperwell import analytic
from hyperwell.cli import main
from hyperwell.config import KEYS, parse_config
from hyperwell.errors import ConfigError
from hyperwell.reporting import build_nu_check_report, build_spectrum_report, build_validate_report

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "hyperwell" / "schemas"

# unlisted keys keep their config.KEYS defaults
INPUTS = {
    # beta^2 = a V0/(s alpha^2) overflows
    "ovf": "potential.alpha = 1e-150\npotential.V0 = 1e10\ngrid.r_min = 1\n",
    # the quantization quadratic's c0 overflows
    "c0": "potential.b = 2.5\npotential.V1 = 7e210\npotential.V2 = -0.3\n",
    # the quantization roots overflow to inf and nan (which the reports print
    # as the non-JSON tokens Infinity and NaN), and so do the envelope
    # exponents and the NU triple
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


def checked(text, command, strict=True):
    """The document, checked against its schema; `strict` refuses NaN and
    Infinity tokens."""
    doc = json.loads(text, parse_constant=refuse if strict else None)
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
        checked(out, command, strict=name != "expo")
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


def test_failing_diagnostics_are_recorded(config_path):
    # the NU triple of expo overflows: nu-check records the error in place
    # of the deltas, as validate does under nu_check
    path = config_path("expo")
    nu_check = checked(run(["nu-check", "--config", path, *STATES])[1], "nu-check", False)
    validate = checked(run(["validate", "--config", path, *STATES])[1], "validate", False)
    assert [e["singular"] for e in entries(nu_check)] == [None] * 9
    assert ([e["diagnostics"] for e in entries(nu_check)]
            == [s["nu_check"] for s in entries(validate)]
            == [{"error": "Poly: coefficient c0 must be finite"}] * 9)


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
    # 0 with a document that meets its schema, and wavefunction exits 0, 4,
    # or 3 naming the normalization
    path = tmp_path / "fuzz.cfg"
    parsed = 0
    for text in fuzz_configs():
        try:
            parse_config(text)
        except ConfigError:
            continue
        parsed += 1
        path.write_text(text)
        for command, states in (("spectrum", "0..1"), ("validate", "0..1"), ("nu-check", "0")):
            code, out, err = run([command, "--config", str(path), "--n", states, "--l", "0..1"])
            assert (code, err) == (0, ""), text
            checked(out, command, strict=False)
        code, _, err = run(["wavefunction", "--config", str(path), "--n", "0", "--l", "1"])
        assert code in (0, 4) or (code == 3 and "normalization" in err), (text, code, err)
    assert parsed == 92
