"""Seeded inputs: config files and argv lists, the only things the program sees.

Every operation is one CLI command. A workload's run repeats whole rounds
of operations; round i uses seeded config i mod POOL, so each round has the
same make-up whatever the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

import checks
import reference

BUNDLED = ("general", "rosen_morse", "poschl_teller", "scarf")
SHAPES = ("general", "rosen-morse", "poschl-teller", "scarf")
KEYS = ("a", "b", "c", "d", "V0", "V1", "V2", "alpha")
S = 1.0  # hbar^2/(2m) of every config here: hbar = 1, mass = 0.5
POOL = 8
R_MIN = 1e-6

# The fixed input that shows the Numerov node-count fault on every run: an
# Eckart well with a cosech^2 barrier (kappa = 2) and two deep s-wave bound
# levels; level 1 is bound by 2.8, so its outward Numerov sweep grows by
# ~e^67 past the turning point and the thresholded node count reads 0.
FAULT = {"a": 1.0, "b": 0.0, "c": -2.0, "d": 0.0, "V0": 28.0, "V1": 0.0, "V2": 1.0, "alpha": 1.0}

# A fixed input past the fall-to-center threshold at l = 0 only:
# B/(s alpha^2) = -0.3 < -1/4, so the oracle must flag l = 0 and not l = 1, 2.
FALL = {"a": 1.0, "b": 0.2, "c": 1.3, "d": 0.5, "V0": 6.0, "V1": 0.5, "V2": 1.0, "alpha": 2.0}

# A bound level counts as deep when its decay rate q = sqrt(binding / s)
# gives q r_max >= 60 (r_max = 40/alpha, so q >= 1.5 alpha).
DEEP_Q = 1.5


def parse_cfg(text: str) -> dict:
    """The keys the checks need from a config document; absent keys take the
    documented defaults (the demo potential, hbar = 1, mass = 0.5, grid
    [1e-6, 40/alpha] with 2000 points)."""
    cfg = {"potential": {"a": 1.0, "b": 0.01, "c": 2.0, "d": 2.0,
                         "V0": 1.0, "V1": 0.5, "V2": 0.02, "alpha": 1.0},
           "hbar": 1.0, "mass": 0.5, "grid": {"r_min": 1e-6, "r_max": None, "n_points": 2000}}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" not in line:
            continue
        key, _, value = (x.strip() for x in line.partition("="))
        section, _, name = key.partition(".")
        if section == "potential":
            cfg["potential"][name] = float(value)
        elif section == "constants":
            cfg[name] = float(value)
        elif section == "grid":
            cfg["grid"][name] = int(value) if name == "n_points" else float(value)
    if cfg["grid"]["r_max"] is None:
        cfg["grid"]["r_max"] = 40.0 / cfg["potential"]["alpha"]
    return cfg


def cfg_text(p: dict, n_points: int) -> str:
    lines = [f"potential.{k} = {p[k]!r}" for k in KEYS]
    lines += ["constants.hbar = 1", "constants.mass = 0.5",
              f"grid.r_min = {R_MIN!r}", f"grid.n_points = {n_points}"]
    return "\n".join(lines) + "\n"


def _lowest_level(p: dict, l: int, n_points: int) -> float:
    """Lowest FD level on the oracle's grid, for the generator's acceptance test."""
    r = np.linspace(R_MIN, 40.0 / p["alpha"], n_points)[1:-1]
    h = r[1] - r[0]
    v = reference.potential(p, r)[0] + S * l * (l + 1) / (r * r)
    t = S / (h * h)
    return float(eigh_tridiagonal(2 * t + v, np.full(r.size - 1, -t),
                                  eigvals_only=True, select="i", select_range=(0, 0))[0])


def draw_bound(rng: random.Random, l_max: int, n_points: int) -> dict:
    """One in-family config with exactly one s-wave bound level, deep.

    In the units of alpha: B/(s alpha^2) in [-0.2, 3] sets kappa in [0.72, 2.3];
    A/(s alpha^2) is drawn between the depth that makes level 0 deep
    (2 kappa^2 + 2 DEEP_Q kappa) and 0.85 of the threshold that would bind
    level 1 (2 (1 + kappa)^2). For l = 1..l_max the lowest level must be
    deep or above the asymptote; a draw that fails is replaced by the next.
    """
    while True:
        alpha = rng.uniform(1.0, 4.0)
        s2 = S * alpha * alpha
        B = rng.uniform(-0.2, 3.0) * s2
        k = 0.5 + (0.25 + B / s2) ** 0.5
        A = rng.uniform(2 * k * k + 2 * DEEP_Q * k, 0.85 * 2 * (1 + k) ** 2) * s2
        a = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
        bV1 = rng.uniform(0.0, 0.5) * s2
        b = rng.uniform(0.2, 1.0)
        V2 = rng.uniform(0.5, 2.0)
        p = {"a": a, "b": b, "c": (bV1 - B) / V2, "d": rng.uniform(-2.0, 2.0),
             "V0": A / a, "V1": bV1 / b, "V2": V2, "alpha": alpha}
        asym = reference.asymptote(p)
        ok = True
        for l in range(1, l_max + 1):
            e = _lowest_level(p, l, n_points)
            if asym - (DEEP_Q * alpha) ** 2 * S < e <= asym:
                ok = False
        if ok:
            return p


class Op:
    """One CLI command: its argv, the config it reads, and its output check."""

    def __init__(self, argv, cfg, check, fault=False):
        self.argv = argv
        self.key = " ".join(argv)
        self.cfg = cfg
        self.check = check  # (cfg, text, schemas) -> list of failures
        self.fault = fault  # the fixed input that shows the Numerov node-count fault


def warm_up(op: Op) -> Op:
    """The set-up's warm-up operation: the round's first command, on its
    lowest state only when it runs the oracle. It imports and runs every
    layer the round uses, without the cost of a full solver sweep, so that
    set-up time stays set-up and not a copy of one operation's time."""
    if op.argv[0] not in ("validate", "oracle"):
        return op
    return Op(op.argv[:op.argv.index("--n")] + ["--n", "0", "--l", "0"], op.cfg, op.check)


def _write(workdir: Path, name: str, text: str):
    path = workdir / f"{name}.cfg"
    path.write_text(text)
    return str(path), parse_cfg(text)


def _pool(rng: random.Random, workdir: Path, prefix: str, l_max: int, n_points: int):
    return [_write(workdir, f"{prefix}{i}", cfg_text(draw_bound(rng, l_max, n_points), n_points))
            for i in range(POOL)]


def _validate(cfg, text, schemas):
    return checks.validate_report(cfg, json.loads(text), schemas)


def _oracle(cfg, text, schemas):
    return checks.oracle_report(cfg, json.loads(text), schemas)


ALL_STATES = [(n, l, branch) for n in range(3) for l in range(2) for branch in ("plus", "minus")]
# The demo config's n = 2, l = 0 state drives the normalization quadrature
# to its largest grid (524,289 points, about 140 MiB peak), so every round
# reaches the same peak memory whatever the seeded config needs.
HEAVIEST = [(2, 0, "plus")]


def _curves(path, cfg, states):
    """Figure CSVs of one config: each shape's potential at alpha 1..4, the
    effective potential for l 1..3 with both barriers, and the wavefunction
    of each (n, l, branch) in states."""
    c = ["--config", path]
    ops = [Op(["potential", *c, "--alpha", "1,2,3,4", "--kind", kind], cfg,
              lambda cfg, text, _s, kind=kind: checks.potential_csv(cfg, kind, (1, 2, 3, 4), text))
           for kind in SHAPES]
    for approx in (False, True):
        ops.append(Op(["effective", *c, "--l", "1,2,3"] + (["--approximate"] if approx else []), cfg,
                      lambda cfg, text, _s, approx=approx: checks.effective_csv(cfg, (1, 2, 3), approx, text)))
    for n, l, branch in states:
        ops.append(Op(["wavefunction", *c, "--n", str(n), "--l", str(l), "--branch", branch],
                      cfg, lambda cfg, text, _s: checks.wavefunction_csv(cfg, text)))
    return ops


def build(workload: str, seed: int, root: Path, workdir: Path):
    """The round function of a workload: round index -> list of Ops.

    Every round has the same operations on the fixed inputs and the same
    operations on one seeded config, POOL of which are drawn from the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "validate-sweep":
        fixed = [(str(root / "configs" / f"{b}.cfg"), parse_cfg((root / "configs" / f"{b}.cfg").read_text()))
                 for b in BUNDLED]
        fixed.append(_write(workdir, "fall", cfg_text(FALL, 2000)))
        fault = _write(workdir, "fault", cfg_text(FAULT, 2000))
        pool = _pool(rng, workdir, "bound", 2, 2000)
        states = ["--n", "0..2", "--l", "0..2"]

        def round_ops(i):
            ops = [Op(["validate", "--config", path] + states, cfg, _validate) for path, cfg in fixed]
            ops.append(Op(["validate", "--config", fault[0]] + states, fault[1], _validate, fault=True))
            path, cfg = pool[i % POOL]
            ops.append(Op(["validate", "--config", path] + states, cfg, _validate))
            return ops
    elif workload == "oracle-fine":
        fault = _write(workdir, "fault", cfg_text(FAULT, 8000))
        pool = _pool(rng, workdir, "bound", 1, 8000)
        states = ["--n", "0..2", "--l", "0..1"]

        def round_ops(i):
            path, cfg = pool[i % POOL]
            return [Op(["oracle", "--config", fault[0]] + states, fault[1], _oracle, fault=True),
                    Op(["oracle", "--config", path] + states, cfg, _oracle)]
    elif workload == "curves":
        demo, rosen = ((str(path), parse_cfg(path.read_text()))
                       for path in (root / "configs" / "general.cfg", root / "configs" / "rosen_morse.cfg"))
        pool = _pool(rng, workdir, "bound", 1, 2000)

        # potential and effective, whose cost does not depend on the config,
        # are most of a round, so the median operation is one of them
        def round_ops(i):
            return (_curves(*demo, HEAVIEST) + _curves(*rosen, [])
                    + _curves(*pool[i % POOL], ALL_STATES))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return round_ops
