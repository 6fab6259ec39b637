#!/usr/bin/env python3
"""hyperwell benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload validate-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The last line of stdout is one
JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1). Details
go to perfbench/out/result-<workload>-<seed>-<trace>.json.

Load is one process with one thread: the workload runs in worker.py,
and only one worker is alive at a time. With --trace 0 the worker is
started SETUPS times; all but the last stop after set-up, and setup_s is
the median of the SETUPS times from process start to ready.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("validate-sweep", "oracle-fine", "curves")
SETUPS = 5
TIMEOUT_S = 170.0


def start_worker(args, setup_only, deadline):
    """(seconds from start to ready, parsed result line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=HERE.parent, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if json.loads(line or "{}").get("event") != "ready":
            raise RuntimeError("worker ended before set-up finished")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(x) for x in out.splitlines() if x.strip()]
    result = next((x for x in lines if x.get("event") == "result"), None)
    if not setup_only and result is None:
        raise RuntimeError("worker printed no result")
    return ready, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    try:
        for _ in range(SETUPS - 1 if not args.trace else 0):
            setups.append(start_worker(args, True, deadline)[0])
        ready, result = start_worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    (HERE / "out").mkdir(exist_ok=True)
    detail = {k: v for k, v in result.items() if k != "event"}
    detail["setups_s"] = setups
    (HERE / "out" / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for key, fails in result["unexpected"].items():
        print(f"perfbench: FAILED {key}: {fails}", file=sys.stderr)
    if result["unchecked"]:
        print(f"perfbench: {len(result['unchecked'])} commands had a check that could not be "
              "applied; listed under 'unchecked' in the result file", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
