"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side: ``install`` wraps the
package's module-level functions (and the validation hook of
``DickeDensityMatrix``) so each call made during a real ``run_scenario`` or
``sweep`` becomes one span with its name, start, end, parent span and item.
The program itself is not changed; names missing from a later version of
the package are skipped.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# Functions each module looks up at call time, so wrapping the module
# attribute catches the calls that run_scenario and sweep make.
TRACED_FUNCTIONS = {
    "spincat.scenario": ("build_scenario", "tabulate_kernels", "solve_tau_mqs",
                         "coherent_state", "assess_mqs", "snapshot_series",
                         "markov_limits", "_sweep_point"),
    "spincat.evolve": ("solve_tau_mqs", "evolve_state", "f_of_t", "gamma_of_t",
                       "mqs_target", "fidelity", "purity", "coherence_corner",
                       "to_x_basis", "coherent_state"),
    "spincat.kernels": ("f_of_t", "gamma_of_t", "correlation_time", "markov_limits"),
    "spincat.dicke": ("coherent_state", "rotation_to_x"),
}
# (module, class, method, span name): DickeDensityMatrix checks every matrix
# it is built from, including its O(d^3) eigenvalue test.
TRACED_METHODS = (("spincat.dicke", "DickeDensityMatrix", "__post_init__", "dicke.validate"),)


class Tracer:
    """Records spans as ``[name, start, end, parent_index, item]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def install(self):
        """Wrap every traced name that exists; ``uninstall`` undoes it."""
        wrappers = {}  # one wrapper per function, shared by all modules binding it
        for modname, names in TRACED_FUNCTIONS.items():
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    home = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self.wrap(fn, f"{home}.{fn.__name__}")
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        for modname, clsname, attr, name in TRACED_METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is not None:
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(fn, name))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)


def span_self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out
