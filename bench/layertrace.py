"""Outside-in layer tracing for the benchmark.

The program is not edited.  Instead, while a Tracer is installed, every
public graphspectra function that one module imports from another is
replaced, in the importing module, by a wrapper that records a span;
so are numpy.linalg.eigvals, svd and det.  A span's layer is the
module that defines the function (``solver`` for compute_spectrum,
wherever it is called from); numpy.linalg spans count under the layer
span that encloses them.  The benchmark opens one root span per job,
in layer ``cli``.

Spans are kept in memory as (name, layer, start, end, parent, job,
count) and written out once the run ends.  ``count`` is the work a
call did: matrices for numpy.linalg and unitary_stack, certified
eigenvalues (with multiplicity) for compute_spectrum.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The modules that call into other layers.  fd is only an import cost
# and errors does no work, so neither is traced.
CALLER_MODULES = ("cli", "stats", "solver", "eigenfunctions", "bounds", "scattering", "graphs")
LINALG = {"eigvals": "eig", "svd": "svd", "det": "det"}
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "job", "count")


def _matrices(args, result) -> int:
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _stack_size(args, result) -> int:
    return int(np.shape(result)[0])


def _eigen_count(args, result) -> int:
    return int(getattr(result, "size", 0))


def _no_count(args, result) -> int:
    return 0


COUNTERS = {"unitary_stack": _stack_size, "compute_spectrum": _eigen_count}


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job = -1

    def _wrap(self, fn, name: str, layer: str, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            rec[6] = counter(args, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, function, span name, layer, counter) to patch."""
        out = []
        for short in CALLER_MODULES:
            module = sys.modules[f"graphspectra.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__
                if home == module.__name__ or not home.startswith("graphspectra."):
                    continue
                layer = home.rsplit(".", 1)[1]
                counter = COUNTERS.get(attr, _no_count)
                out.append((module, attr, fn, f"{layer}.{attr}", layer, counter))
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            out.append((np.linalg, attr, fn, f"linalg.{attr}", "linalg", _matrices))
        return out

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        targets = self._targets()
        try:
            for owner, attr, fn, name, layer, counter in targets:
                setattr(owner, attr, self._wrap(fn, name, layer, counter))
            yield self
        finally:
            for owner, attr, fn, *_ in targets:
                setattr(owner, attr, fn)

    @contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; every span opened inside belongs to it."""
        self.job = job_id
        rec = ["cli.main", "cli", perf_counter(), 0.0, -1, job_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()
            self.job = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def self_times(spans) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    own = np.array([s[3] - s[2] for s in spans])
    out = own.copy()
    for s, dur in zip(spans, own):
        if s[4] >= 0:
            out[s[4]] -= dur
    return out


def layer_metrics(spans, jobs: int) -> dict:
    """Per-layer figures per job, from the spans of `jobs` traced jobs.

    numpy.linalg spans are charged to the layer of their parent span;
    every other figure is the self time of a layer's spans.
    """
    self_s = self_times(spans)
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for s, own in zip(spans, self_s):
        name, layer, start, end, parent, _, count = s
        if layer == "linalg":
            owner = spans[parent][1] if parent >= 0 else "none"
            kind = LINALG[name.split(".", 1)[1]]
            add(f"{owner}.{kind}_s", end - start)
            add(f"{owner}.{kind}_calls", 1)
            add(f"{owner}.{kind}_matrices", count)
            continue
        add(f"{layer}.self_s", own)
        if layer == "solver":
            add("solver.calls", 1)
            add("solver.certified", count)
        elif name.endswith(".unitary_stack"):
            add("scattering.unitary_stack_s", end - start)
            add("scattering.unitary_stack_matrices", count)
        elif name.startswith("scattering.total_phase"):
            add("scattering.total_phase_s", end - start)
        elif name == "graphs.load_graph_file":
            add("graphs.load_s", own)
        elif "decomposition" in name:
            add("graphs.decomp_s", own)
    decomposed = sum(acc.get(f"solver.{k}_matrices", 0.0) for k in LINALG.values())
    certified = acc.pop("solver.certified", 0.0)
    per_job = {key: value / jobs for key, value in acc.items()}
    per_job["solver.matrices_per_eig"] = decomposed / certified if certified else 0.0
    per_job["trace.self_sum_s"] = float(self_s.sum()) / jobs
    return per_job
