#!/usr/bin/env python3
"""Golden diff: run one fixed CLI command list on two source trees and compare.

    python3 tools/golden.py --base <rev> [--new <rev>] [--quick]

The base revision is exported with `git archive` into a temporary
directory (nothing is registered in the repository, so an interrupted run
leaves nothing behind); the new tree is this checkout's working tree, or
`--new <rev>` exported the same way. Each tree runs the whole list through
`hyperwell.cli.main` in one subprocess, which shows every warning each
time it is raised, so that no command's warning hides a later one's. Per
command the tool prints "identical", or else the exit codes, the first
differing line of stdout or stderr and the largest delta between
corresponding numbers of the two outputs, relative to their magnitude
floored at 1 (as the reports' own relative deltas are). Where both stdouts
are JSON the numbers correspond by their path in the document (object
keys and list indices joined by dots), and the tool also lists the leaf
paths added, those removed and those whose value other than a number
changed, so that a new record does not hide a moved number. A run with
differences ends with the largest of those deltas over all differing
commands and the command that holds it.
No expected output is stored: both trees run on the same machine, so the
LAPACK build cannot matter.

The list covers every command on the bundled configs, on the benchmark's
fixed inputs FAULT and FALL and on 4 seeded `draw_bound` draws, at 2000
and 8000 points, plus the error cases: a bad config, a bad grid, a
repeated state entry, an unreadable config and an unwritable output.
All of those have hbar^2/(2m) = 1, so two more inputs set it elsewhere:
FAULT with mass 5 (s = 0.1) and the first draw with hbar 2 (s = 4).
Extreme but valid inputs close the list: two whose centrifugal barrier
overflows, one whose F = R exp(beta r/2) overflows in `validate`'s ODE
residual, one whose Numerov probe overflows, an alpha whose square
overflows (spectrum, effective and oracle), one whose 1/(s alpha^2)
overflows, an hbar whose B/(s alpha^2) overflows (oracle at n 0 and at
n 0..2), a d at the top of the float range, a grid whose h^2
underflows, and an r_max at the top of the float range (wavefunction,
and potential on 64 points). Eight more pin the closed-form failure rule,
FD's overflowing diagonal and the rendering of an infinite asymptote: an
a V0 of 1e-6, whose radicand the NU engine must still take the root of
(validate); a beta^2 that overflows (spectrum and wavefunction); a
quantization c0 that overflows (validate); quantization roots that
overflow (validate and wavefunction on one input, spectrum on another);
a k of the NU problem that overflows at the root validate chooses
(validate); a grid whose (2 s/h^2)^2 in units of s alpha^2 overflows
(oracle); and an asymptote C - A that overflows (validate).

Which commands must stay identical: FD's Ritz step forms V^T T V and the
Ritz vectors with numpy's own loops and solves V^T T V with LAPACK dsyevd
through the oracle's one LAPACK, so FD's levels and states move by
rounding only. Every `potential`, `effective`, `wavefunction` and
`spectrum` command stays identical in stdout, stderr and exit code; an
`oracle` or `validate` command may differ only in FD-derived numbers,
each by at most 1e-14 relative, with no path added or removed, no node
count moved and stderr and exit code unchanged.

`--quick` runs a short list for a smoke test. Exit code 0 when every
command is identical, 1 when one differs, 2 when a revision cannot be
exported or a tree's runner fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (2000, 8000)
DRAWS = 4
SEED = 2011
# the (n, l) state lists that validate runs on each config
STATE_LISTS = (("0..2", "0..2"), ("0..1", "0"), ("0", "1,2"), ("1..2", "0..1"))
# name, input, and the constants line that moves s = hbar^2/(2m) off 1
OTHER_S = (("fault_mass5", "fault", "constants.mass = 0.5", "constants.mass = 5"),
           ("draw0_hbar2", "draw0", "constants.hbar = 1", "constants.hbar = 2"))
HUGE_ALPHA = "potential.alpha = 1e160\ngrid.r_min = 3\ngrid.r_max = 1e30\n"
TOP = "grid.r_max = 1.7976931348623157e308\n"
TINY_HBAR = "potential.V0 = 1e30\nconstants.hbar = 1e-160\n"
OVF = "potential.alpha = 1e-150\npotential.V0 = 1e10\ngrid.r_min = 1\n"
EXPO = "potential.alpha = 0.7\npotential.a = 700\npotential.V0 = 1e274\n"
# name, config text and command of each extreme input
EXTREME = (
    ("wide_grid", "potential.a = 20\npotential.b = 1e-30\nconstants.mass = 1e-300\n"
     "grid.r_min = 1e-12\ngrid.r_max = 1e300\ngrid.n_points = 400\n",
     ["oracle", "--n", "5", "--l", "0..2"]),
    ("light_barrier", "potential.c = -3\npotential.d = 1\npotential.V0 = 1e-30\n"
     "potential.V2 = 0.5\npotential.alpha = 2\nconstants.mass = 1e-300\n"
     "grid.r_max = 5\ngrid.n_points = 64\n",
     ["oracle", "--n", "0..2", "--l", "7"]),
    ("residual", "potential.b = 0.5\npotential.c = 3\npotential.d = 1000\n"
     "potential.V1 = 1000\npotential.V2 = 3\npotential.alpha = 1e-30\n"
     "constants.hbar = 2\ngrid.n_points = 200\n",
     ["validate", "--n", "0..2", "--l", "1"]),
    ("heavy_probe", "potential.b = -1\npotential.c = 1e-160\npotential.d = -3\n"
     "potential.V0 = 20\npotential.V1 = -0.25\nconstants.mass = 1e300\n"
     "grid.r_max = 1e-3\ngrid.n_points = 400\n",
     ["oracle", "--n", "0", "--l", "7"]),
    ("huge_alpha_spectrum", HUGE_ALPHA, ["spectrum", "--n", "0", "--l", "0"]),
    ("huge_alpha_effective", HUGE_ALPHA, ["effective", "--l", "1", "--approximate"]),
    ("huge_alpha_oracle", HUGE_ALPHA, ["oracle", "--n", "0", "--l", "0"]),
    ("huge_scale", "potential.V2 = -1\npotential.alpha = 1e-160\ngrid.r_min = 20\n",
     ["validate", "--n", "0", "--l", "0"]),
    ("tiny_hbar", TINY_HBAR, ["oracle", "--n", "0", "--l", "0"]),
    ("vanishing_kinetic", TINY_HBAR, ["oracle", "--n", "0..2", "--l", "0"]),
    ("top_depth", "potential.d = 1.7976931348623157e308\n", ["oracle", "--n", "0", "--l", "0"]),
    ("tiny_grid", "potential.a = 0\npotential.b = 0\npotential.c = 0\n"
     "grid.r_min = 1e-300\ngrid.r_max = 1e-160\n", ["oracle", "--n", "0", "--l", "0"]),
    ("top_grid", TOP, ["wavefunction", "--n", "0", "--l", "0"]),
    ("top_grid_64", TOP + "grid.n_points = 64\n", ["potential"]),
    ("small_beta", "potential.V0 = 1e-6\n", ["validate", "--n", "0..2", "--l", "0..2"]),
    ("overflowing_beta_spectrum", OVF, ["spectrum", "--n", "0..1", "--l", "0..1"]),
    ("overflowing_beta_wavefunction", OVF, ["wavefunction", "--n", "0", "--l", "1"]),
    ("overflowing_c0", "potential.b = 2.5\npotential.V1 = 7e210\npotential.V2 = -0.3\n",
     ["validate", "--n", "0..1", "--l", "0..1"]),
    ("overflowing_exponent_validate", EXPO, ["validate", "--n", "0..2", "--l", "0..2"]),
    ("overflowing_exponent_wavefunction", EXPO, ["wavefunction", "--n", "0", "--l", "1"]),
    ("overflowing_root", "potential.b = -0.3e139\n", ["spectrum", "--n", "0..2", "--l", "0..2"]),
    ("overflowing_k", "potential.V0 = 0.25\npotential.V1 = -0.7\nconstants.mass = 1e154\n",
     ["validate", "--n", "0..2", "--l", "0"]),
    ("overflowing_diagonal", "potential.a = 0\npotential.b = 0\npotential.c = 0\n"
     "potential.d = 0\nconstants.hbar = 27.5\nconstants.mass = 0.5\n"
     "grid.r_min = 1e-160\ngrid.r_max = 1e-150\ngrid.n_points = 400\n",
     ["oracle", "--n", "0", "--l", "0"]),
    ("overflowing_asymptote", "potential.a = -2.5e223\npotential.V0 = -2.5e257\n"
     "grid.n_points = 200\n", ["validate", "--n", "0..1", "--l", "0..1"]),
)
WAVEFUNCTIONS = [(n, l, b) for n in range(3) for l in range(2) for b in ("plus", "minus")]
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|\b(?:nan|NaN|inf|Infinity)\b)")
# JSON paths listed per command and kind before "and N more"
_SHOWN = 5

# Runs inside each tree's subprocess: argv lists in, one record per command out.
RUNNER = """
import contextlib, io, json, sys, warnings
from pathlib import Path
from hyperwell.cli import main
warnings.simplefilter("always")
results = []
for argv in json.loads(Path(sys.argv[1]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def _inputs():
    """Name -> potential coefficients of the fixed and seeded inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    rng = random.Random(SEED)
    draws = {f"draw{i}": inputs.draw_bound(rng, 2, 2000) for i in range(DRAWS)}
    return inputs, {"fault": inputs.FAULT, "fall": inputs.FALL, **draws}


def write_configs(workdir: Path, quick: bool):
    """Config files of every input at every size; returns their paths."""
    bundled = ("general",) if quick else ("general", "rosen_morse", "poschl_teller", "scarf")
    sizes = SIZES[:1] if quick else SIZES
    paths = []
    for name in bundled:
        text = (ROOT / "configs" / f"{name}.cfg").read_text()
        for size in sizes:
            path = workdir / f"{name}_{size}.cfg"
            path.write_text(re.sub(r"grid\.n_points = \d+", f"grid.n_points = {size}", text))
            paths.append(path)
    if not quick:
        inputs, seeded = _inputs()
        for name, p in seeded.items():
            for size in sizes:
                path = workdir / f"{name}_{size}.cfg"
                path.write_text(inputs.cfg_text(p, size))
                paths.append(path)
        for name, base, old, new in OTHER_S:
            for size in sizes:
                path = workdir / f"{name}_{size}.cfg"
                path.write_text(inputs.cfg_text(seeded[base], size).replace(old, new))
                paths.append(path)
    return paths


def command_list(workdir: Path, quick: bool):
    configs = write_configs(workdir, quick)
    bad = workdir / "bad.cfg"
    bad.write_text("potential.a = one\n")
    bad_grid = workdir / "bad_grid.cfg"
    bad_grid.write_text("grid.n_points = 3\n")
    general = str(configs[0])
    errors = [
        ["spectrum", "--config", str(bad)],
        ["oracle", "--config", str(bad_grid)],
        ["validate", "--config", general, "--n", "0,0"],
        ["spectrum", "--config", str(workdir / "missing.cfg")],
        ["spectrum", "--config", general, "--out", str(workdir / "no_dir" / "out.json")],
    ]
    if quick:
        return [["spectrum", "--config", general, "--n", "0..1", "--l", "0..1"],
                ["effective", "--config", general, "--l", "0..1"],
                ["wavefunction", "--config", general, "--n", "1", "--l", "0"],
                ["validate", "--config", general, "--n", "0", "--l", "0"],
                ["oracle", "--config", general, "--n", "0..1", "--l", "1"]] + errors[:2]
    commands = []
    for path in configs:
        cfg = ["--config", str(path)]
        commands += [["potential", *cfg, "--alpha", "1,2"], ["effective", *cfg, "--l", "0..2"],
                     ["effective", *cfg, "--l", "1", "--approximate"],
                     ["spectrum", *cfg, "--n", "0..2", "--l", "0..2"],
                     ["oracle", *cfg, "--n", "0..2", "--l", "0..2"]]
        commands += [["validate", *cfg, "--n", n, "--l", l] for n, l in STATE_LISTS]
        commands += [["wavefunction", *cfg, "--n", str(n), "--l", str(l), "--branch", b]
                     for n, l, b in WAVEFUNCTIONS]
    kinds = [["potential", "--config", general, "--kind", k]
             for k in ("rosen-morse", "poschl-teller", "scarf")]
    extreme = []
    for name, text, argv in EXTREME:
        path = workdir / f"{name}.cfg"
        path.write_text(text)
        extreme.append([*argv, "--config", str(path)])
    return commands + kinds + errors + extreme


def export(rev: str, dest: Path) -> Path:
    """The committed tree of rev, unpacked into dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def start(tree: Path, commands_file: Path, results_file: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(commands_file),
                             str(results_file)], env=env, cwd=tree)


def _numbers(text):
    return [float(tok) for tok in _NUMBER.findall(text)]


def _rel_delta(pairs):
    """Largest |x - y| / max(|x|, |y|, 1) over the number pairs."""
    worst = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y), 1.0)
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def max_rel_delta(a: str, b: str):
    """Largest relative delta over corresponding numbers, or None when the
    two outputs hold different counts of numbers."""
    xs, ys = _numbers(a), _numbers(b)
    return _rel_delta(zip(xs, ys)) if len(xs) == len(ys) else None


def _leaves(doc, path=""):
    """Path -> value of every leaf of a parsed JSON document, a path naming
    object keys and list indices joined by dots."""
    if isinstance(doc, dict) and doc:
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return {path: doc}
    leaves = {}
    for key, value in items:
        leaves |= _leaves(value, f"{path}.{key}" if path else str(key))
    return leaves


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_delta(a: str, b: str):
    """(added, removed, changed, delta) of two JSON documents: the leaf paths
    only b has, those only a has, the shared paths whose values other than
    numbers differ, and the largest relative delta over the numbers at
    shared paths; None when either output is not JSON."""
    try:
        la, lb = _leaves(json.loads(a)), _leaves(json.loads(b))
    except json.JSONDecodeError:
        return None
    shared = [k for k in la if k in lb]
    numeric = {k for k in shared if _is_number(la[k]) and _is_number(lb[k])}
    changed = [k for k in shared if k not in numeric and la[k] != lb[k]]
    return ([k for k in lb if k not in la], [k for k in la if k not in lb], changed,
            _rel_delta((la[k], lb[k]) for k in numeric))


def first_difference(a: str, b: str):
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<end>"
        y = lb[i] if i < len(lb) else "<end>"
        if x != y:
            return i + 1, x, y
    return None


def compare(labels, base, new, out=sys.stdout) -> int:
    differing = 0
    worst = None  # (delta, label) of the largest delta over differing commands
    uncounted = reshaped = 0
    for label, r0, r1 in zip(labels, base, new, strict=True):
        if r0 == r1:
            print(f"identical  {label}", file=out)
            continue
        differing += 1
        print(f"DIFFERS    {label}", file=out)
        print(f"  exit codes: {r0['code']} -> {r1['code']}", file=out)
        for stream in ("stdout", "stderr"):
            diff = first_difference(r0[stream], r1[stream])
            if diff:
                line, x, y = diff
                print(f"  {stream} line {line}:\n    - {x.strip()}\n    + {y.strip()}", file=out)
        documents = json_delta(r0["stdout"], r1["stdout"])
        if documents is None:
            delta = max_rel_delta(r0["stdout"], r1["stdout"])
        else:
            *paths, delta = documents
            reshaped += any(paths)
            for name, keys in zip(("added", "removed", "changed"), paths):
                if keys:
                    more = f" and {len(keys) - _SHOWN} more" if len(keys) > _SHOWN else ""
                    print(f"  paths {name}: {', '.join(keys[:_SHOWN])}{more}", file=out)
        shown = "numbers differ in count" if delta is None else f"{delta:.3g}"
        print(f"  max relative numeric delta: {shown}", file=out)
        if delta is None:
            uncounted += 1
        elif worst is None or delta > worst[0]:
            worst = (delta, label)
    print(f"{len(labels) - differing} identical, {differing} differing "
          f"of {len(labels)} commands", file=out)
    if differing:
        shown = "none comparable" if worst is None else f"{worst[0]:.3g} in {worst[1]}"
        if reshaped:
            shown += f"; {reshaped} with JSON paths added, removed or changed"
        if uncounted:
            shown += f"; {uncounted} with numbers differing in count"
        print(f"largest relative numeric delta: {shown}", file=out)
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision of the base tree")
    parser.add_argument("--new", help="revision of the new tree (default: this working tree)")
    parser.add_argument("--quick", action="store_true", help="a short command list")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        commands = command_list(tmp / "inputs", args.quick)
        commands_file = tmp / "commands.json"
        commands_file.write_text(json.dumps(commands))
        try:
            trees = [export(args.base, tmp / "base"),
                     export(args.new, tmp / "new") if args.new else ROOT]
        except subprocess.CalledProcessError:
            return 2  # git has named the bad revision on stderr
        procs = [start(tree, commands_file, tmp / f"results{i}.json")
                 for i, tree in enumerate(trees)]
        if any([p.wait() for p in procs]):
            print("golden: a tree's runner failed", file=sys.stderr)
            return 2
        base, new = (json.loads((tmp / f"results{i}.json").read_text()) for i in range(2))
        prefix = f"{tmp / 'inputs'}{os.sep}"
        labels = [" ".join(argv).replace(prefix, "") for argv in commands]
        return 1 if compare(labels, base, new) else 0


if __name__ == "__main__":
    sys.exit(main())
