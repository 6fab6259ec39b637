"""tools/golden.py: a smoke run of HEAD against itself, and the diff report."""

import io
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
    assert proc.stdout.endswith("6 identical, 0 differing of 6 commands\n")


def test_difference_report():
    same = {"code": 0, "stdout": "a\n1.0\n", "stderr": ""}
    moved = {"code": 3, "stdout": "a\n1.5\n", "stderr": "hyperwell: error: x\n"}
    out = io.StringIO()
    assert golden.compare(["one", "two"], [same, same], [same, moved], out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "identical  one"
    assert lines[1:8] == ["DIFFERS    two", "  exit codes: 0 -> 3",
                          "  stdout line 2:", "    - 1.0", "    + 1.5",
                          "  stderr line 1:", "    - <end>"]
    assert lines[-2] == "  max relative numeric delta: 0.333"
    assert lines[-1] == "1 identical, 1 differing of 2 commands"
