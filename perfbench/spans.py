"""In-memory spans around the program's public functions.

Each wrapped call records its name, start, end, parent span and the
operation it belongs to. The wrappers replace the function in every
hyperwell module that holds it, because `reporting` and `cli` import
functions by name. Nothing is written until `save` is called at the end
of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# module.function of each layer boundary; the first part names the module
TRACED = (
    "oracle.numerov_spectrum", "oracle.fd_spectrum",
    "analytic.energy_levels", "analytic.closed_form_diagnostics", "analytic.ode_residual",
    "analytic.radial_wavefunction",
    "nu.enumerate_branches", "nu.pi_tau_select",
    "potential.scan_series", "potential.eval_potential",
    "special.hyperbolic_pair", "special.jacobi",
    "reporting.build_validate_report", "reporting.build_oracle_report",
    "reporting.json_document", "reporting.csv_document",
    "config.parse_config",
)
SOLVERS = ("oracle.numerov_spectrum", "oracle.fd_spectrum")
PACKAGE = "hyperwell"


class Tracer:
    """Span recorder; `install` swaps the wrappers in, `remove` swaps them out."""

    def __init__(self):
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.asymptote = None  # of the current operation, for the solvers' level counts
        self.levels = 0
        self.bound_levels = 0
        self._originals = {}
        self._wrappers = {}
        for i, dotted in enumerate(TRACED):
            mod, _, fn = dotted.partition(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            self._originals[id(original)] = original
            self._wrappers[id(original)] = self._wrap(original, i, dotted in SOLVERS)

    def _wrap(self, fn, nid, solver):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = clock()
            if solver:
                energies = [e for _, e, _ in result.levels]
                self.levels += len(energies)
                self.bound_levels += sum(e < self.asymptote for e in energies)
            return result

        return traced

    def _swap(self, table):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in table:
                    setattr(mod, attr, table[id(value)])

    def install(self):
        self._swap(self._wrappers)

    def remove(self):
        self._swap({id(w): self._originals[k] for k, w in self._wrappers.items()})

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
