"""Config parsing and the command-line front door (subprocess level)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperwell.cli import main
from hyperwell.config import parse_config, parse_float_list, parse_int_list
from hyperwell.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SCHEMAS = REPO / "src" / "hyperwell" / "schemas"


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperwell", *args],
        capture_output=True, text=True, env=env, timeout=timeout, cwd=str(REPO))


def validate_schema(doc, schema_name):
    import jsonschema

    schema = json.loads((SCHEMAS / f"{schema_name}.json").read_text())
    jsonschema.validate(doc, schema)


class TestParsers:
    def test_int_list_forms(self):
        assert parse_int_list("0..2") == (0, 1, 2)
        assert parse_int_list("0,2,5") == (0, 2, 5)
        assert parse_int_list("3") == (3,)

    def test_int_list_rejects_negative(self):
        with pytest.raises(ConfigError):
            parse_int_list("-1..2")

    def test_int_list_rejects_repeated_entry(self):
        with pytest.raises(ConfigError, match=r"--n: repeated entry 1 in '1,1,0'"):
            parse_int_list("1,1,0", where="--n")
        with pytest.raises(ConfigError, match="repeated entry 2"):
            parse_int_list("0..2,2")
        assert parse_int_list("2,0") == (2, 0)  # the given order is kept

    def test_float_list(self):
        assert parse_float_list("1,2.5,4") == (1.0, 2.5, 4.0)

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_int_list("2..")
        with pytest.raises(ConfigError):
            parse_float_list("1,,2")


class TestParseConfig:
    def test_empty_text_gives_demo_defaults(self):
        cfg = parse_config("")
        assert cfg.params.a == 1.0 and cfg.params.b == 0.01
        assert cfg.params.c == 2.0 and cfg.params.d == 2.0
        assert cfg.params.V0 == 1.0 and cfg.params.V1 == 0.5 and cfg.params.V2 == 0.02
        assert cfg.params.alpha == 1.0
        assert cfg.consts.hbar == 1.0 and cfg.consts.mass == 0.5
        assert cfg.n_list == (0, 1, 2) and cfg.l_list == (0,)
        assert cfg.grid.r_min == 1e-6
        assert cfg.grid.r_max == pytest.approx(40.0)
        assert cfg.grid.n_points == 2000

    def test_full_document_round_trip(self):
        text = "\n".join([
            "# comment line",
            "potential.a = -1      # inline comment",
            "potential.V0 = 2.5",
            "potential.alpha = 2",
            "constants.mass = 1.0",
            "grid.n_points = 512",
            "grid.r_max = 7.5",
            "state.n = 0..1",
            "state.l = 0,2",
        ])
        cfg = parse_config(text)
        assert cfg.params.a == -1.0 and cfg.params.V0 == 2.5 and cfg.params.alpha == 2.0
        assert cfg.consts.mass == 1.0
        assert cfg.grid.n_points == 512 and cfg.grid.r_max == 7.5
        assert cfg.n_list == (0, 1) and cfg.l_list == (0, 2)

    def test_default_r_max_follows_alpha(self):
        cfg = parse_config("potential.alpha = 4")
        assert cfg.grid.r_max == pytest.approx(10.0)

    def test_unknown_key_named_with_line(self):
        for text, key, line in (("potential.zz = 3", "potential.zz", 1),
                                ("potential.a = 1\noutput.format = json", "output.format", 2)):
            with pytest.raises(ConfigError, match=key) as info:
                parse_config(text)
            assert info.value.line == line

    def test_refused_value_named_with_line(self):
        # the line of the key that set the value; r_min < r_max names r_min
        # when it is set and r_max when only that is
        for text, match, line in (
                ("potential.a = 1\npotential.alpha = -1", "alpha must be positive", 2),
                ("constants.hbar = 2\nconstants.mass = 0", "mass must be positive", 2),
                ("grid.r_max = 40\ngrid.r_min = 50", "r_min < r_max", 2),
                ("grid.r_min = 50", "r_min < r_max", 1),
                ("potential.a = 1\ngrid.r_max = 1e-7", "r_min < r_max", 2),
                ("state.n = 0\ngrid.n_points = 4", "n_points must be", 2)):
            with pytest.raises(ConfigError, match=match) as info:
                parse_config(text)
            assert info.value.line == line, text

    def test_repeated_state_entry_named_with_line(self):
        with pytest.raises(ConfigError, match=r"state.n: repeated entry 1 in '0,1,1'") as info:
            parse_config("potential.a = 1\nstate.n = 0,1,1")
        assert info.value.line == 2

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("potential.a 3")

    def test_invariant_violation_wrapped(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("potential.alpha = -1")

    def test_alpha_override(self):
        alpha = {"potential.alpha": ("2", "--alpha")}
        cfg2 = parse_config("", alpha)
        assert cfg2.params.alpha == 2.0
        assert cfg2.grid.r_max == pytest.approx(20.0)  # re-derived
        cfg3 = parse_config("grid.r_max = 5", alpha)
        assert cfg3.grid.r_max == 5.0  # explicit r_max wins

    def test_override_replaces_the_document_value_unread(self):
        # a flag is an assignment after the document's own: the value it
        # replaces is never validated
        with pytest.raises(ConfigError, match="repeated entry 0"):
            parse_config("state.n = 0,0")
        cfg = parse_config("state.n = 0,0\npotential.alpha = -1",
                           {"state.n": ("1", "--n"), "potential.alpha": ("4", "--alpha")})
        assert cfg.n_list == (1,) and cfg.params.alpha == 4.0
        assert cfg.grid.r_max == pytest.approx(10.0)

    def test_override_error_names_the_flag(self):
        for overrides, message in (
                ({"state.n": ("0,0", "--n")}, "--n: repeated entry 0 in '0,0'"),
                ({"state.l": ("x", "--l")}, "--l: bad integer 'x'"),
                ({"potential.alpha": ("0", "--alpha")},
                 "PotentialParams: alpha must be positive, got 0.0")):
            with pytest.raises(ConfigError) as info:
                parse_config("potential.a = 1\npotential.alpha = 2\nstate.n = 0", overrides)
            assert str(info.value) == message and info.value.line is None


class TestCliExitCodes:
    def test_missing_config_is_2(self):
        proc = run_cli("spectrum", "--config", "/nonexistent.cfg")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_unwritable_output_is_2(self, tmp_path):
        out = tmp_path / "no_such_dir" / "x.csv"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"output.path = {out}\n")
        for args in (("--config", str(CONFIGS / "general.cfg"), "--out", str(out)),
                     ("--config", str(cfg))):
            proc = run_cli("potential", *args)
            assert proc.returncode == 2
            assert f"cannot write output {str(out)!r}" in proc.stderr
            assert "internal" not in proc.stderr

    def test_bad_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("potential.bogus = 1\n")
        proc = run_cli("spectrum", "--config", str(bad))
        assert proc.returncode == 2
        assert "potential.bogus" in proc.stderr

    def test_config_error_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("potential.a = 1\nbogus line\n")
        assert main(["spectrum", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "hyperwell: error: line 2: expected 'section.key = value'\n")

    def test_flag_replaces_a_refused_document_value(self, tmp_path, capsys):
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text("state.n = 0,0\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2
        assert "line 1: state.n: repeated entry 0" in capsys.readouterr().err
        assert main(["spectrum", "--config", str(cfg), "--n", "1"]) == 0
        assert [e["n"] for e in json.loads(capsys.readouterr().out)["entries"]] == [1]

    def test_repeated_state_entry_is_2(self):
        for flag, value in (("--n", "1,1,0"), ("--l", "0,1,0")):
            proc = run_cli("validate", "--config", str(CONFIGS / "general.cfg"),
                           flag, value, "--out", "-")
            assert proc.returncode == 2
            assert f"{flag}: repeated entry" in proc.stderr
            assert proc.stdout == ""

    def test_wavefunction_singular_is_4(self):
        proc = run_cli("wavefunction", "--config", str(CONFIGS / "poschl_teller.cfg"),
                       "--n", "0", "--l", "0", "--out", "-")
        assert proc.returncode == 4
        assert "beta = 0" in proc.stderr

    def test_validate_singular_is_0(self):
        proc = run_cli("validate", "--config", str(CONFIGS / "poschl_teller.cfg"),
                       "--out", "-")
        assert proc.returncode == 0

    def test_ok_is_0(self):
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"), "--out", "-")
        assert proc.returncode == 0

    def test_import_leaves_out_scipy_optimize(self):
        # scipy.optimize costs about 0.3 s of start-up that every command would pay
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyperwell.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, timeout=120, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_scipy_integrate(self):
        # the normalization quadrature is hyperwell's own; scipy.integrate
        # would add about 0.3 s of start-up to every command
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyperwell.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, timeout=120, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


    def test_closed_form_layers_load_no_scipy(self):
        # only the oracle solves with LAPACK; the closed forms, the potential
        # and the exact surrogate levels import nothing from scipy
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyperwell.analytic, hyperwell.potential, hyperwell.special, "
             "hyperwell.nu, hyperwell.exact; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_the_solving_commands_load_lapack(self):
        # scipy.linalg loads on the first solve: about 0.3 s of start-up
        # that the commands which never solve do not pay
        script = "\n".join([
            "import contextlib, io, sys",
            "from hyperwell.cli import main",
            "for command in sys.argv[2:]:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        code = main([*command.split(), '--config', sys.argv[1]])",
            "    print(command.split()[0], code, 'scipy.linalg' in sys.modules)"])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(CONFIGS / "general.cfg"), "potential",
             "effective", "spectrum", "wavefunction --n 0 --l 0", "nu-check", "oracle"],
            capture_output=True, text=True, timeout=120, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "potential 0 False", "effective 0 False", "spectrum 0 False",
            "wavefunction 0 False", "nu-check 0 False", "oracle 0 True"]

    def test_config_loads_no_eigensolver(self):
        # the grid is part of the config, so parsing one never loads LAPACK
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyperwell.config; print('scipy.linalg' in sys.modules)"],
            capture_output=True, text=True, timeout=120, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestCliDeterminism:
    def test_byte_identical_json(self):
        a = run_cli("validate", "--config", str(CONFIGS / "general.cfg"), "--out", "-")
        b = run_cli("validate", "--config", str(CONFIGS / "general.cfg"), "--out", "-")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    def test_byte_identical_csv(self):
        a = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                    "--alpha", "1,2", "--out", "-")
        b = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                    "--alpha", "1,2", "--out", "-")
        assert a.stdout == b.stdout

    def test_no_stamp_by_default(self):
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"), "--out", "-")
        assert "generated" not in proc.stdout

    def test_stamp_only_on_csv_commands(self):
        # the JSON commands carry no comments, so they refuse the flag
        proc = run_cli("validate", "--config", str(CONFIGS / "general.cfg"), "--stamp")
        assert proc.returncode == 2
        assert "unrecognized arguments: --stamp" in proc.stderr
        assert proc.stdout == ""
        for command in ("spectrum", "oracle", "nu-check"):
            with pytest.raises(SystemExit) as info:
                main([command, "--stamp"])
            assert info.value.code == 2

    def test_stamp_only_in_comments(self):
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                       "--stamp", "--out", "-")
        stamped = [line for line in proc.stdout.splitlines() if "generated" in line]
        assert stamped and all(line.startswith("#") for line in stamped)


class TestCsvOutputs:
    def test_potential_columns_per_alpha(self):
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                       "--alpha", "1,2,3", "--out", "-")
        header = [line for line in proc.stdout.splitlines()
                  if line and not line.startswith("#")][0]
        assert header.split(",") == ["r", "V_alpha=1", "V_alpha=2", "V_alpha=3"]

    def test_effective_columns_per_l(self):
        proc = run_cli("effective", "--config", str(CONFIGS / "general.cfg"),
                       "--l", "1,2,3", "--out", "-")
        header = [line for line in proc.stdout.splitlines()
                  if line and not line.startswith("#")][0]
        assert header.split(",") == ["r", "Veff_l=1", "Veff_l=2", "Veff_l=3"]

    def test_lf_line_endings_and_numeric_format(self, tmp_path):
        out = tmp_path / "pot.csv"
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                       "--out", str(out))
        assert proc.returncode == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        assert text.endswith("\n")

    def test_wavefunction_norm_on_emitted_grid(self):
        proc = run_cli("wavefunction", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "0", "--l", "0", "--out", "-")
        assert proc.returncode == 0
        rows = [line for line in proc.stdout.splitlines()
                if line and not line.startswith("#")]
        data = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
        r, dens = data[:, 0], data[:, 3]
        total = np.trapezoid(dens, r)
        assert abs(total - 1.0) < 1e-4

    def test_wavefunction_branch_flag(self):
        plus = run_cli("wavefunction", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "0", "--l", "0", "--branch", "plus", "--out", "-")
        minus = run_cli("wavefunction", "--config", str(CONFIGS / "general.cfg"),
                        "--n", "0", "--l", "0", "--branch", "minus", "--out", "-")
        assert plus.returncode == 0 and minus.returncode == 0
        assert plus.stdout != minus.stdout


class TestJsonOutputs:
    def test_spectrum_demo_populated(self):
        proc = run_cli("spectrum", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "0..2", "--l", "0..2", "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "spectrum")
        entries = doc["entries"]
        assert len(entries) == 9
        assert all(e["singular"] is None for e in entries)
        assert all(len(e["branches"]) == 2 for e in entries)

    def test_spectrum_scarf_all_singular(self):
        proc = run_cli("spectrum", "--config", str(CONFIGS / "scarf.cfg"), "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "spectrum")
        entries = doc["entries"]
        assert entries and all(e["singular"] is not None for e in entries)
        assert all("beta = 0" in e["singular"]["reason"] for e in entries)

    def test_spectrum_variant_flag(self):
        q = run_cli("spectrum", "--config", str(CONFIGS / "general.cfg"),
                    "--variant", "quadratic", "--out", "-")
        s = run_cli("spectrum", "--config", str(CONFIGS / "general.cfg"),
                    "--variant", "spectrum", "--out", "-")
        dq = json.loads(q.stdout)["entries"][0]["branches"][0]["eps2"]
        ds = json.loads(s.stdout)["entries"][0]["branches"][0]["eps2"]
        assert dq != ds

    def test_oracle_report(self):
        proc = run_cli("oracle", "--config", str(CONFIGS / "general.cfg"),
                       "--l", "0,1", "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "oracle")
        assert [rec["l"] for rec in doc["per_l"]] == [0, 1]
        for rec in doc["per_l"]:
            assert rec["fd"]["energies"]
            assert rec["numerov"]["energies"]
            assert len(rec["cross_delta_rel"]) > 0

    def test_nu_check_report(self):
        proc = run_cli("nu-check", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "0", "--l", "0", "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "nu_check")

    def test_validate_report_schema(self):
        proc = run_cli("validate", "--config", str(CONFIGS / "general.cfg"), "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "validate")

    def test_validate_l_only_change(self):
        base = json.loads(run_cli(
            "validate", "--config", str(CONFIGS / "general.cfg"), "--out", "-").stdout)
        other = json.loads(run_cli(
            "validate", "--config", str(CONFIGS / "general.cfg"),
            "--l", "1", "--out", "-").stdout)
        # V is l-independent; the oracle sections are not
        assert base["potential"]["asymptote"] == other["potential"]["asymptote"]
        assert base["oracle"]["per_l"] != other["oracle"]["per_l"]


class TestKindFlag:
    def test_poschl_teller_kind_negates_c(self):
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                       "--kind", "poschl-teller", "--out", "-")
        assert proc.returncode == 0
        assert "# kind = poschl-teller" in proc.stdout
        rows = [line for line in proc.stdout.splitlines()
                if line and not line.startswith("#")][1:]
        first_v = float(rows[0].split(",")[1])
        # constructor input c = 2 (from the config) is stored negated, so the
        # family evaluates -(-2) V2 csch^2 > 0 near the origin
        assert first_v > 0

    def test_unknown_kind_is_config_error(self):
        proc = run_cli("potential", "--config", str(CONFIGS / "general.cfg"),
                       "--kind", "woods-saxon", "--out", "-")
        assert proc.returncode == 2
