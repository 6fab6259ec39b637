"""tools/golden.py: a smoke run of HEAD against itself, and the diff report."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402


def test_head_against_itself():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True)
    if head.returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "golden.py"),
                           "--base", "HEAD", "--new", "HEAD", "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("7 identical, 0 differing of 7 commands\n")


def test_difference_report():
    same = {"code": 0, "stdout": "a\n1.0\n", "stderr": ""}
    moved = {"code": 3, "stdout": "a\n1.5\n", "stderr": "hyperwell: error: x\n"}
    nudged = {"code": 0, "stdout": "a\n1.1\n", "stderr": ""}
    longer = {"code": 0, "stdout": "a\n1.0\n2.0\n", "stderr": ""}
    # a JSON document that gains a fidelity record and moves one number
    state = {"n": 0, "ode_residual": {"residual": [1.0, 2.0]}}
    base_doc = {"code": 0, "stdout": json.dumps({"states": [state]}), "stderr": ""}
    fidelity = {**state, "ode_residual": {"residual": [1.0, 2.2]}, "fidelity": {"value": 0.19}}
    new_doc = {**base_doc, "stdout": json.dumps({"states": [fidelity]})}
    out = io.StringIO()
    labels = ["one", "two", "three", "four", "five"]
    assert golden.compare(labels, [same] * 4 + [base_doc],
                          [same, moved, nudged, longer, new_doc], out=out) == 4
    lines = out.getvalue().splitlines()
    assert lines[0] == "identical  one"
    assert lines[1:8] == ["DIFFERS    two", "  exit codes: 0 -> 3",
                          "  stdout line 2:", "    - 1.0", "    + 1.5",
                          "  stderr line 1:", "    - <end>"]
    assert "  max relative numeric delta: 0.333" in lines
    four = lines.index("DIFFERS    four")
    assert lines[four + 5] == "  max relative numeric delta: numbers differ in count"
    # JSON outputs are compared path by path, so the added record is named
    # and the numbers at the shared paths still give a delta
    assert lines[four + 6:-2] == [
        "DIFFERS    five", "  exit codes: 0 -> 0", "  stdout line 1:",
        '    - {"states": [{"n": 0, "ode_residual": {"residual": [1.0, 2.0]}}]}',
        '    + {"states": [{"n": 0, "ode_residual": {"residual": [1.0, 2.2]}, '
        '"fidelity": {"value": 0.19}}]}',
        "  paths added: states.0.fidelity.value",
        "  max relative numeric delta: 0.0909"]
    assert lines[-2] == "1 identical, 4 differing of 5 commands"
    # the largest delta over all differing commands, not the last one's
    assert lines[-1] == ("largest relative numeric delta: 0.333 in two; "
                         "1 with JSON paths added, removed or changed; "
                         "1 with numbers differing in count")


def test_json_paths_removed_and_changed():
    base = json.dumps({"a": [1, {"b": "x", "c": None}], "d": True, "e": {}})
    new = json.dumps({"a": [1, {"b": "y", "c": 2.0}], "e": {}, "f": []})
    assert golden.json_delta(base, new) == (["f"], ["d"], ["a.1.b", "a.1.c"], 0.0)
    assert golden.json_delta("x,1.0\n", new) is None
