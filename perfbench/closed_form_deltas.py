#!/usr/bin/env python3
"""Reference data, not a check: closed-form l = 0 levels against Eckart's.

    python3 perfbench/closed_form_deltas.py

For a few bound-regime wells, prints the bound Eckart levels next to the
level the `spectrum` command picks (the branch with the smaller |Im E|)
and the complex distance between them. The output is the table in
perfbench/README.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from hyperwell.cli import main as cli_main  # noqa: E402

WELLS = {
    "fault input (kappa = 2)": inputs.FAULT,
    "barrier, alpha = 0.7": {"a": 1.0, "b": 0.0, "c": -1.0, "d": 0.0,
                             "V0": 12.0, "V1": 0.0, "V2": 1.0, "alpha": 0.7},
    "pure coth": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0,
                  "V0": 20.0, "V1": 0.0, "V2": 0.0, "alpha": 1.0},
    "every channel, alpha = 2": {"a": 2.0, "b": 0.5, "c": -1.0, "d": 1.5,
                                 "V0": 22.0, "V1": 2.0, "V2": 2.0, "alpha": 2.0},
}


def closed_form(p, n_max):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "well.cfg"
        path.write_text(inputs.cfg_text(p, 2000))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(["spectrum", "--config", str(path), "--n", f"0..{n_max}", "--l", "0"])
    if rc != 0:
        raise SystemExit(f"spectrum exited with {rc}")
    levels = {}
    for entry in json.loads(out.getvalue())["entries"]:
        if entry["singular"]:
            levels[entry["n"]] = entry["singular"]["reason"]
            continue
        chosen = next(b for b in entry["branches"] if b["branch"] == entry["chosen_branch"])
        levels[entry["n"]] = complex(chosen["energy"]["re"], chosen["energy"]["im"])
    return levels


def main():
    print("| well | n | Eckart E_n | closed form (chosen branch) | abs delta |")
    print("| --- | --- | --- | --- | --- |")
    for name, p in WELLS.items():
        bound = [k for k in range(6) if reference.eckart_level(p, inputs.S, k)[1]]
        cf = closed_form(p, bound[-1])
        for k in bound:
            e, _ = reference.eckart_level(p, inputs.S, k)
            z = cf[k]
            if isinstance(z, str):
                print(f"| {name} | {k} | {e:.4f} | singular: {z} | |")
            else:
                print(f"| {name} | {k} | {e:.4f} | {z.real:.4f} {z.imag:+.4f}i | {abs(z - e):.4g} |")


if __name__ == "__main__":
    main()
