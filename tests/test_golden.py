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
    assert proc.stdout.endswith("7 identical, 0 differing of 7 commands\n")


def test_difference_report():
    same = {"code": 0, "stdout": "a\n1.0\n", "stderr": ""}
    moved = {"code": 3, "stdout": "a\n1.5\n", "stderr": "hyperwell: error: x\n"}
    nudged = {"code": 0, "stdout": "a\n1.1\n", "stderr": ""}
    longer = {"code": 0, "stdout": "a\n1.0\n2.0\n", "stderr": ""}
    out = io.StringIO()
    labels = ["one", "two", "three", "four"]
    assert golden.compare(labels, [same] * 4, [same, moved, nudged, longer], out=out) == 3
    lines = out.getvalue().splitlines()
    assert lines[0] == "identical  one"
    assert lines[1:8] == ["DIFFERS    two", "  exit codes: 0 -> 3",
                          "  stdout line 2:", "    - 1.0", "    + 1.5",
                          "  stderr line 1:", "    - <end>"]
    assert "  max relative numeric delta: 0.333" in lines
    assert lines[-3] == "  max relative numeric delta: numbers differ in count"
    assert lines[-2] == "1 identical, 3 differing of 4 commands"
    # the largest delta over all differing commands, not the last one's
    assert lines[-1] == ("largest relative numeric delta: 0.333 in two; "
                         "1 with numbers differing in count")
