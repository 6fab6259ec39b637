"""The workload process: set up, run whole rounds for the given seconds, check.

Started by run.py, one at a time. It prints JSON lines on stdout: a
`ready` line when set-up is done (imports, input generation and one
warm-up operation, see inputs.warm_up), then, unless --setup-only, a
`result` line.

Operations call hyperwell.cli.main(argv) in this process with stdout
captured. The first output of each distinct command is checked when it
appears, between operations and outside the timed intervals; every repeat
must be byte-identical to it. Only the operations' own time counts toward
--seconds and the metrics.

`attempted` counts the operations of one round (its slots) and `failed`
the slots whose operation failed in at least one round, so neither grows
with the number of rounds a run completes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy only after the thread variables are set)
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PER_LAYER = (
    ("oracle.numerov_spectrum", ("self_ms", "calls")),
    ("oracle.fd_spectrum", ("self_ms", "calls")),
    ("analytic.energy_levels", ("calls", "self_ms")),
    ("analytic.closed_form_diagnostics", ("self_ms",)),
    ("analytic.ode_residual", ("self_ms",)),
    ("nu.enumerate_branches", ("calls",)),
    ("nu.pi_tau_select", ("self_ms",)),
    ("reporting.build_validate_report", ("self_ms",)),
    ("potential.scan_series", ("self_ms",)),
    ("potential.eval_potential", ("calls",)),
    ("special.hyperbolic_pair", ("calls",)),
    ("analytic.radial_wavefunction", ("self_ms",)),
    ("special.jacobi", ("self_ms",)),
    ("reporting.json_document", ("self_ms",)),
    ("reporting.csv_document", ("self_ms",)),
    ("config.parse_config", ("self_ms",)),
)


def emit(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def run_op(main, op):
    """(exit code, seconds, stdout text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(op.argv)
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue()


def digest(rc, text):
    return hashlib.sha256(f"{rc}\n{text}".encode()).digest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "hyperwell" / "__init__.py").is_file():
        print(f"perfbench: no hyperwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hyperwell.cli import main as cli_main

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        round_ops = inputs.build(args.workload, args.seed, ROOT, workdir)
        schemas = checks.Schemas(ROOT)
        warm = inputs.warm_up(round_ops(0)[0])
        rc, _, text = run_op(cli_main, warm)
        emit({"event": "ready"})
        if args.setup_only:
            return 0
        book = Book(schemas)
        book.first(warm, rc, text)
        result = timed(args, round_ops, cli_main, book)
        result.update(book.verdict())
        emit({"event": "result", **result})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed(args, round_ops, cli_main, book):
    """Whole rounds until the operations have run for --seconds; in a traced
    run, each round runs untraced and then traced, on the same inputs."""
    tracer = None
    if args.trace:
        import reference
        from spans import Tracer
        tracer = Tracer()
    busy = 0.0
    t0 = time.perf_counter()
    i = 0
    while True:
        traced = bool(tracer) and i % 2 == 1
        for slot, op in enumerate(round_ops(i // 2 if tracer else i)):
            if traced:
                tracer.current_op = len(book.runs)
                tracer.asymptote = reference.asymptote(op.cfg["potential"])
                tracer.install()
            try:
                rc, dt, text = run_op(cli_main, op)
            finally:
                if traced:
                    tracer.remove()
            busy += dt
            book.record(op, slot, traced, rc, dt, text)
        i += 1
        if busy >= args.seconds and (not tracer or i % 2 == 0):
            break
    runs = book.runs
    result = {"rounds": i, "busy_s": busy, "wall_s": time.perf_counter() - t0,
              "op_s": [[op.argv[0], slot, traced, dt] for op, slot, traced, dt in runs]}
    plain = [dt for _, _, traced, dt in runs if not traced]
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": {"value": len(runs) / busy, "unit": "ops/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(plain), "unit": "ms"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }
    else:
        traced_dt = [dt for _, _, traced, dt in runs if traced]
        result["metrics"] = per_layer(tracer, len(traced_dt))
        result["metrics"]["trace.overhead_ms"] = {
            "value": 1e3 * (statistics.median(traced_dt) - statistics.median(plain)), "unit": "ms"}
        tracer.save(OUT / f"trace-{args.workload}.npz")
    return result


def per_layer(tracer, n_ops):
    totals = tracer.self_times()
    metrics = {}
    for name, kinds in PER_LAYER:
        calls, self_s = totals[name]
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = {"value": calls / n_ops, "unit": "count"}
            else:
                metrics[f"{name}.self_ms"] = {"value": 1e3 * self_s / n_ops, "unit": "ms"}
    metrics["oracle.levels"] = {"value": tracer.levels / n_ops, "unit": "count"}
    metrics["oracle.bound_level_ratio"] = {
        "value": tracer.bound_levels / tracer.levels if tracer.levels else 0.0, "unit": "ratio"}
    return metrics


class Book:
    """Outcome of every operation run: the first output of each distinct
    command is checked once, and each later run of it must reproduce that
    output byte for byte. Failures are kept per slot of the round."""

    def __init__(self, schemas):
        self.schemas = schemas
        self.seen = {}  # command -> (digest, failures) of its first output
        self.runs = []  # (op, slot, traced, seconds)
        self.slots = 0
        self.failed_slots = set()
        self.failed_runs = 0
        self.unexpected = {}
        self.fault_failures = {}
        self.unchecked = {}

    def first(self, op, rc, text):
        if rc != 0:
            fails = [f"exit: code {rc}"]
        else:
            try:
                fails = op.check(op.cfg, text, self.schemas)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                fails = [f"unreadable: {type(exc).__name__}: {exc}"]
        notes = [f for f in fails if f.startswith(checks.UNCHECKED)]
        if notes:
            self.unchecked[op.key] = notes
        fails = [f for f in fails if not f.startswith(checks.UNCHECKED)]
        self.seen[op.key] = (digest(rc, text), fails)
        self.judge(op, fails)

    def judge(self, op, fails):
        """File failures as the known Numerov node-count fault or as unexpected."""
        if op.fault and fails and all(f.startswith("numerov_nodes:") for f in fails):
            self.fault_failures[op.key] = fails
        elif fails:
            self.unexpected[op.key] = fails

    def record(self, op, slot, traced, rc, dt, text):
        if op.key not in self.seen:
            self.first(op, rc, text)
        d0, fails = self.seen[op.key]
        if digest(rc, text) != d0:
            fails = fails + ["repeat: output differs from the first run"]
            self.judge(op, fails)
        self.runs.append((op, slot, traced, dt))
        self.slots = max(self.slots, slot + 1)
        if fails:
            self.failed_runs += 1
            self.failed_slots.add(slot)

    def verdict(self):
        return {"correct": not self.unexpected, "attempted": self.slots,
                "failed": len(self.failed_slots), "runs": len(self.runs),
                "failed_runs": self.failed_runs, "unexpected": self.unexpected,
                "fault_failures": self.fault_failures, "unchecked": self.unchecked}


if __name__ == "__main__":
    sys.exit(main())
