"""Config parsing and the command-line front door (subprocess level)."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hyperwell.analytic import energy_levels
from hyperwell.cli import main
from hyperwell.config import parse_config, parse_float_list, parse_int_list
from hyperwell.errors import ConfigError, EvaluationOverflowError
from hyperwell.oracle import numerov_spectrum
from hyperwell.potential import effective_potential
from hyperwell.reporting import (
    build_spectrum_report,
    effective_csv,
    potential_csv,
    wavefunction_csv,
)
from params import mapped

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SCHEMAS = REPO / "src" / "hyperwell" / "schemas"


def run_cli(*args, env_extra=None, timeout=120):
    """The CLI in a subprocess, with warnings as errors as in pytest itself."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "hyperwell", *args],
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

    @pytest.mark.parametrize("text", [
        *(path.read_text() for path in sorted(CONFIGS.glob("*.cfg"))),
        "\n".join(["potential.a = -1", "potential.b = 0.25", "potential.c = 3",
                   "potential.d = -0.5", "potential.V0 = 2.5", "potential.V1 = 0.125",
                   "potential.V2 = 7", "potential.alpha = 2", "constants.hbar = 1.5",
                   "constants.mass = 3", "grid.r_min = 1e-3", "grid.r_max = 7.5",
                   "grid.n_points = 512", "state.n = 2,0", "state.l = 1..3"]),
    ])
    def test_config_echo_round_trip(self, text):
        # a report's config echo, written back as a document, parses to the
        # same RunConfig: the parser and the echo know every field
        cfg = parse_config(text)
        echo = build_spectrum_report(cfg)["config"]
        lines = [f"{section}.{key} = "
                 + (",".join(map(str, value)) if isinstance(value, list) else repr(value))
                 for section, keys in echo.items() for key, value in keys.items()]
        assert parse_config("\n".join(lines)) == cfg

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
                ("potential.a = 1\ngrid.r_max = 0", "r_min < r_max", 2),
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

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--n", ""], "empty value for --n"),
        (["spectrum", "--l", ""], "empty value for --l"),
        (["spectrum", "--out", ""], "empty value for --out"),
        (["potential", "--alpha", ""], "--alpha: empty entry in list ''"),
        (["spectrum", "--config", ""], "cannot read config ''"),
    ])
    def test_empty_flag_value_is_2(self, argv, message, capsys):
        # a flag that is given is an assignment, even an empty one
        config = [] if "--config" in argv else ["--config", str(CONFIGS / "general.cfg")]
        assert main([*argv, *config]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"hyperwell: error: {message}")
        assert captured.out == ""

    def test_overflowing_potential_is_a_block_error(self, tmp_path):
        # the potential overflows at r_min; the l-block says so, and no
        # numpy warning reaches stderr (run_cli makes warnings errors)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("grid.r_min = 1e-200\n")
        proc = run_cli("oracle", "--config", str(cfg))
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["per_l"][0]["error"] == (
            "eval_potential: term b*V1*coth^2 is non-finite at r = 1e-200")

    HUGE_ALPHA = "potential.alpha = 1e160\ngrid.r_min = 3\ngrid.r_max = 1e30\n"
    TINY_HBAR = "potential.V0 = 1e30\nconstants.hbar = 1e-160\n"

    # extreme but valid inputs where an overflowing barrier, F = R exp(beta r/2)
    # or Numerov probe once leaked numpy warnings and printed NaN: (config,
    # command, the section of blocks (a list, or a field of each list entry),
    # each block's error, FD's levels per block)
    EXTREME = {
        "wide-grid": (
            "potential.a = 20\npotential.b = 1e-30\nconstants.mass = 1e-300\n"
            "grid.r_min = 1e-12\ngrid.r_max = 1e300\ngrid.n_points = 400\n",
            ["oracle", "--n", "5", "--l", "0..2"], "per_l",
            ["fd_spectrum: s/h^2 = 0.0 is not a positive finite number (h^2 = inf)",
             "effective_potential: term centrifugal barrier is non-finite at r = 1e-12",
             "effective_potential: term centrifugal barrier is non-finite at r = 1e-12"],
            [None, None, None]),
        "light-barrier": (
            "potential.c = -3\npotential.d = 1\npotential.V0 = 1e-30\npotential.V2 = 0.5\n"
            "potential.alpha = 2\nconstants.mass = 1e-300\ngrid.r_max = 5\n"
            "grid.n_points = 64\n",
            ["oracle", "--n", "0..2", "--l", "7"], "per_l",
            ["effective_potential: term centrifugal barrier is non-finite at r = 1e-06"],
            [None]),
        "residual": (
            "potential.b = 0.5\npotential.c = 3\npotential.d = 1000\npotential.V1 = 1000\n"
            "potential.V2 = 3\npotential.alpha = 1e-30\nconstants.hbar = 2\n"
            "grid.n_points = 200\n",
            ["validate", "--n", "0..2", "--l", "1"], "states.ode_residual",
            ["ode_residual: F = R exp(beta r/2) is non-finite at r = 4.9999999999999994e+29"] * 2
            + ["jacobi: "],
            None),
        "heavy-probe": (
            "potential.b = -1\npotential.c = 1e-160\npotential.d = -3\npotential.V0 = 20\n"
            "potential.V1 = -0.25\nconstants.mass = 1e300\ngrid.r_max = 1e-3\n"
            "grid.n_points = 400\n",
            ["oracle", "--n", "0", "--l", "7"], "per_l",
            ["fd_spectrum: s/h^2 = 7.98e-290 vanishes beside V"],
            [None]),
        # alpha^2 and s alpha^2 by Python's ** raised OverflowError (exit 3);
        # the energy unit s alpha^2 is inf, which both solvers refuse
        "huge-alpha": (
            HUGE_ALPHA, ["oracle", "--n", "0", "--l", "0"], "per_l",
            ["s alpha^2 = inf makes the 1/(s alpha^2) energy scale singular"],
            None),
        # B/(s alpha^2) overflowed in kappa_radicand with a numpy warning
        "tiny-hbar": (
            TINY_HBAR, ["oracle", "--n", "0", "--l", "0"], "per_l",
            ["fd_spectrum: s/h^2 = 2.5e-317 vanishes beside V"],
            None),
        # FD returned V's three lowest samples as levels, each with no node
        "vanishing-kinetic": (
            TINY_HBAR, ["oracle", "--n", "0..2", "--l", "0"], "per_l",
            ["fd_spectrum: s/h^2 = 2.5e-317 vanishes beside V (adding 2 s/h^2 changes "
             "no interior diagonal entry)"],
            [None]),
        # FD's upper count bound overflowed with a numpy warning
        "top-depth": (
            "potential.d = 1.7976931348623157e308\n",
            ["oracle", "--n", "0", "--l", "0"], "per_l",
            ["fd_spectrum: s/h^2 = 2.5e+03 vanishes beside V"],
            None),
        # h^2 underflows to 0: s/h^2 raised ZeroDivisionError and the Numerov
        # unit's ** OverflowError (exit 3)
        "tiny-grid": (
            "potential.a = 0\npotential.b = 0\npotential.c = 0\n"
            "grid.r_min = 1e-300\ngrid.r_max = 1e-160\n",
            ["oracle", "--n", "0", "--l", "0"], "per_l",
            ["fd_spectrum: s/h^2 = inf is not a positive finite number (h^2 = 0.0)"],
            None),
    }

    @pytest.mark.parametrize("case", EXTREME)
    def test_extreme_scales_are_block_errors(self, tmp_path, capsys, case):
        # pytest makes warnings errors, so a leaked one would exit 3; the
        # document is strict JSON (no NaN or Infinity token)
        text, argv, section, errors, fd_levels = self.EXTREME[case]
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(captured.out, parse_constant=refuse)
        validate_schema(doc, argv[0])
        name, _, field = section.partition(".")
        blocks = [entry[field] if field else entry for entry in doc[name]]
        assert len(blocks) == len(errors)
        for block, error in zip(blocks, errors):
            assert block["error"].startswith(error), block["error"]
        if fd_levels is not None:
            got = [block["fd"]["energies"] if "fd" in block else None for block in blocks]
            assert got == [None if e is None else pytest.approx(e, rel=1e-9)
                           for e in fd_levels]

    def test_tiny_grid_numerov_is_refused(self):
        # the block shows FD's error; Numerov's own: its energy unit overflows
        config = parse_config(self.EXTREME["tiny-grid"][0])
        veff = effective_potential(config.params, config.consts, 0, config.grid.points())
        with pytest.raises(EvaluationOverflowError, match=r"h\^2 \(V - E\)/s is non-finite"):
            numerov_spectrum(veff, mapped(config.consts, config.grid, config.params), 1)

    def test_huge_alpha_spectrum_is_singular(self, tmp_path, capsys):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(self.HUGE_ALPHA)
        assert main(["spectrum", "--config", str(cfg), "--n", "0", "--l", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        validate_schema(doc, "spectrum")
        assert [e["singular"]["reason"] for e in doc["entries"]] == [
            "s alpha^2 = inf makes the 1/(s alpha^2) energy scale singular"]

    def test_overflowing_energy_scale_is_singular(self, tmp_path, capsys):
        # s alpha^2 = 1e-320 is positive, but 1/(s alpha^2) overflows: the
        # state is singular (it was a configuration error, exit 2) and the
        # oracle block still renders
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("potential.V2 = -1\npotential.alpha = 1e-160\ngrid.r_min = 20\n")
        assert main(["validate", "--config", str(cfg), "--n", "0", "--l", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        validate_schema(doc, "validate")
        assert [s["singular"]["reason"] for s in doc["states"]] == [
            "s alpha^2 = 1e-320 makes the 1/(s alpha^2) energy scale singular"]
        assert doc["potential"]["origin_unreliable_per_l"] == {"0": False}
        assert doc["oracle"]["per_l"][0]["error"] == (
            "eval_potential: term b*V1*coth^2 is non-finite at r = 20.0")

    # extreme CSV inputs: (config, command, a row of the document)
    EXTREME_CSV = {
        # the surrogate barrier's alpha^2 raised OverflowError (exit 3); it is
        # inf times cosech^2 = 0 now, a gap
        "huge-alpha": (HUGE_ALPHA, ["effective", "--l", "1", "--approximate"], "1e+30,"),
        # -2 alpha r overflowed in hyperbolic_pair with a numpy warning
        "top-grid": ("grid.r_max = 1.7976931348623157e308\n",
                     ["wavefunction", "--n", "0", "--l", "0"], "1.79769313e+308,0,0,0"),
        # the last point of linspace overflowed with a numpy warning
        "top-grid-64": ("grid.r_max = 1.7976931348623157e308\ngrid.n_points = 64\n",
                        ["potential"], "1.79769313e+308,1.005"),
    }

    @pytest.mark.parametrize("case", EXTREME_CSV)
    def test_extreme_scales_in_csv(self, tmp_path, capsys, case):
        text, argv, row = self.EXTREME_CSV[case]
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert row in captured.out.splitlines()

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

    @pytest.mark.parametrize("command, hbar, message", [
        ("validate", "1e300", "hbar^2/(2m) = inf"),  # hbar**2 overflows
        ("spectrum", "1e-300", "hbar^2/(2m) = 0.0"),  # hbar**2 underflows
    ])
    def test_unrepresentable_hbar_is_2(self, tmp_path, capsys, command, hbar, message):
        cfg = tmp_path / "hbar.cfg"
        cfg.write_text(f"constants.hbar = {hbar}\n")
        assert main([command, "--config", str(cfg), "--n", "0", "--l", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"hyperwell: error: line 1: PhysicalConstants: {message} "
                                "must be positive and finite\n")
        assert captured.out == ""

    @pytest.fixture
    def tiny_alpha(self, tmp_path):
        """general.cfg with alpha = 1e-300."""
        cfg = tmp_path / "tiny_alpha.cfg"
        cfg.write_text((CONFIGS / "general.cfg").read_text() + "potential.alpha = 1e-300\n")
        return str(cfg)

    @pytest.mark.parametrize("command, schema", [
        ("spectrum", "spectrum"), ("validate", "validate")])
    def test_underflowing_alpha_is_recorded_singular(self, capsys, tiny_alpha, command, schema):
        # s alpha^2 underflows to 0, so 1/(s alpha^2) is singular, as at beta = 0
        assert main([command, "--config", tiny_alpha]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        validate_schema(doc, schema)
        entries = doc["states" if command == "validate" else "entries"]
        assert [e["singular"]["reason"] for e in entries] == [
            "s alpha^2 = 0.0 makes the 1/(s alpha^2) energy scale singular"] * 3

    def test_underflowing_alpha_wavefunction_is_4(self, capsys, tiny_alpha):
        assert main(["wavefunction", "--config", tiny_alpha, "--n", "0", "--l", "0"]) == 4
        assert capsys.readouterr().err == (
            "hyperwell: error: s alpha^2 = 0.0 makes the 1/(s alpha^2) energy scale singular\n")

    def test_non_normalizable_wavefunction_is_3(self):
        # |R|^2 overflows near the origin at n = 40; the one line names the
        # end, and no numpy warning precedes it (run_cli makes warnings errors)
        proc = run_cli("wavefunction", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "40", "--l", "0")
        assert proc.returncode == 3
        assert proc.stderr == (
            "hyperwell: error: normalization integrand non-finite toward the origin end\n")
        assert proc.stdout == ""

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
             "effective", "spectrum", "wavefunction --n 0 --l 0", "oracle"],
            capture_output=True, text=True, timeout=120, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "potential 0 False", "effective 0 False", "spectrum 0 False",
            "wavefunction 0 False", "oracle 0 True"]

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

    @pytest.mark.parametrize("command", [
        "potential", "effective", "spectrum", "wavefunction", "oracle", "validate"])
    def test_no_stamp_or_single_alpha_flag(self, capsys, command):
        # outputs depend on the config alone; only potential takes --alpha,
        # its list of columns
        for flag in ["--stamp"] if command == "potential" else ["--stamp", "--alpha"]:
            with pytest.raises(SystemExit) as info:
                main([command, flag, "1"])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert "unrecognized arguments" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["nu-check"], "invalid choice: 'nu-check'"),
        (["spectrum", "--variant", "spectrum"], "unrecognized arguments: --variant spectrum")],
        ids=["nu-check", "spectrum-variant"])
    def test_closed_form_audit_is_validate_alone(self, capsys, argv, message):
        # validate's state records hold the NU diagnostics and the
        # spectrum-variant roots; no other command or flag prints them
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", str(CONFIGS / "general.cfg")])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: hyperwell") and message in captured.err
        assert captured.out == ""

    def test_flags_do_not_leak_between_calls(self, capsys):
        # one parser serves every call in a process; each call's flags are its own
        general = ["--config", str(CONFIGS / "general.cfg")]
        config = parse_config((CONFIGS / "general.cfg").read_text())
        one_state = replace(config, n_list=(0,), l_list=(0,))
        for first, second, want in (
            (["potential", "--kind", "scarf"], ["potential"], potential_csv(config)),
            (["effective", "--approximate"], ["effective"], effective_csv(config)),
            (["wavefunction", "--n", "0", "--l", "0", "--branch", "minus"],
             ["wavefunction", "--n", "0", "--l", "0"], wavefunction_csv(one_state)),
        ):
            assert main([*first, *general]) == 0
            assert capsys.readouterr().out.splitlines() != want.splitlines()
            assert main([*second, *general]) == 0
            assert capsys.readouterr().out.splitlines() == want.splitlines()


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

    def test_norm_line_prints_the_integral_behind_n(self):
        # N = 1/sqrt(I), so the printed N and I give I N^2 = 1 to the 9
        # significant digits each is printed with (at most 1.5e-8 apart); the
        # energy line above them reads a + bi or a - bi, never a + -bi
        config = parse_config((CONFIGS / "general.cfg").read_text())
        for n, l, branch in ((0, 0, "plus"), (1, 1, "plus"), (2, 0, "minus")):
            text = wavefunction_csv(replace(config, n_list=(n,), l_list=(l,)), branch)
            energy_line, n_line, norm_line = text.splitlines()[-3:]
            _, name, _, value = n_line.split()
            assert name == "N"
            integral = float(norm_line.split()[3])
            assert abs(integral * float(value) ** 2 - 1.0) <= 2e-8
            _, name, _, re, sign, im = energy_line.split()
            assert name == "energy" and sign in "+-" and im[0] != "-" and im.endswith("i")
            level = {lv.branch: lv for lv in energy_levels(config.params, config.consts, n, l)}
            assert complex(float(re), float(sign + im[:-1])) == pytest.approx(
                level[branch].energy, rel=1e-8)

    def test_overflowing_abs_r_sq_is_a_gap(self, tmp_path, capsys):
        # |R| is about 1e229 at r = 1e-200, so |R|^2 overflows: an empty cell
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("grid.r_min = 1e-200\n")
        assert main(["wavefunction", "--config", str(cfg), "--n", "1", "--l", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "1e-200,-1.06638746e+229,1.63470463e+228,"

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
        # exact key sets: a value that only repeats another stays out
        assert all(set(e) == {"n", "l", "singular", "branches", "chosen_branch"}
                   for e in entries)
        assert all(set(b) == {"branch", "eps2", "energy", "residual_quantization"}
                   for e in entries for b in e["branches"])

    def test_spectrum_scarf_all_singular(self):
        proc = run_cli("spectrum", "--config", str(CONFIGS / "scarf.cfg"), "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "spectrum")
        entries = doc["entries"]
        assert entries and all(e["singular"] is not None for e in entries)
        assert all("beta = 0" in e["singular"]["reason"] for e in entries)

    def test_validate_spectrum_variant_roots(self):
        # validate prints the spectrum variant's roots beside the quadratic
        # ones; on general.cfg they differ, and max_root_delta is the
        # largest distance of a pair
        proc = run_cli("validate", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "0", "--l", "0", "--out", "-")
        (state,) = json.loads(proc.stdout)["states"]
        quad = [complex(b["eps2"]["re"], b["eps2"]["im"]) for b in state["branches"]]
        spec = [complex(z["re"], z["im"]) for z in state["spectrum_variant"]["eps2"]]
        assert len(quad) == len(spec) == 2
        assert all(q != s for q, s in zip(quad, spec))
        assert state["spectrum_variant"]["max_root_delta"] == max(
            abs(q - s) for q, s in zip(quad, spec))

    def test_validate_states_repeat_spectrum_entries(self):
        # each validate state opens with the spectrum command's entry for it,
        # and the spectrum document names the quadratic grouping it prints
        states = ["--config", str(CONFIGS / "general.cfg"), "--n", "0..1", "--l", "0..1",
                  "--out", "-"]
        spectrum = json.loads(run_cli("spectrum", *states).stdout)
        validate = json.loads(run_cli("validate", *states).stdout)
        assert spectrum["variant"] == "quadratic"
        keys = ("n", "l", "singular", "branches", "chosen_branch")
        assert [{k: s[k] for k in keys} for s in validate["states"]] == spectrum["entries"]

    def test_validate_nu_check_record(self):
        # the NU engine check at the chosen root: the engine's verdict and
        # the diagnostics, with no error on general.cfg
        proc = run_cli("validate", "--config", str(CONFIGS / "general.cfg"),
                       "--n", "0..2", "--l", "0..2", "--out", "-")
        doc = json.loads(proc.stdout)
        validate_schema(doc, "validate")
        assert len(doc["states"]) == 9
        for state in doc["states"]:
            record = state["nu_check"]
            assert set(record) == {"engine_lambda_mismatch", "physical_branch", "diagnostics"}
            assert len(record["diagnostics"]["k_reference"]) == 2
            assert len(record["diagnostics"]["k_mechanical_disc"]) == 2

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
