"""Per-layer tracing by wrapping the names each layer's callers look up.

Nothing in the program is edited: ``install`` replaces module and class
attributes with timing wrappers and returns a function that puts the
originals back.  A span's self time is its duration minus the time of
the spans it encloses, so self times of all layers add up to the time
spent inside ``khoarrow.cli.main``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# (module, attribute, layer).  Modules import functions by name, so
# each caller's own binding is replaced, not just the defining module's.
TARGETS = (
    ("khoarrow.cli", "main", "cli"),
    ("khoarrow.cli", "parse_pd", "diagram.parse"),
    ("khoarrow.cli", "parse_gauss", "diagram.parse"),
    ("khoarrow.corpus", "parse_pd", "diagram.parse"),
    ("khoarrow.cube", "resolve", "cube.resolve"),
    ("khoarrow.chain", "resolve", "cube.resolve"),
    ("khoarrow.reduced", "resolve", "cube.resolve"),
    ("khoarrow.cli", "build_unreduced", "chain.build"),
    ("khoarrow.chain", "solve_signs", "chain.solve_signs"),
    ("khoarrow.chain", "edge_map", "chain.edge_map"),
    ("khoarrow.reduced", "edge_map", "chain.edge_map"),
    ("khoarrow.chain.BigradedComplex", "check_d_squared", "homology.d2"),
    ("khoarrow.cli", "homology", "homology"),
    # ``import khoarrow.homology`` yields the function re-exported by the
    # package, so the module is reached through sys.modules
    ("khoarrow.homology", "snf_diagonal", "snf"),
    ("khoarrow.cli", "smith_normal_form", "snf"),
    ("khoarrow.cli", "build_reduced", "reduced.build"),
    ("khoarrow.reduced", "operator_lattice", "reduced.lattice"),
    ("khoarrow.reduced", "ev", "reduced.ev"),
    ("khoarrow.reduced", "arrow_differential", "reduced.differential"),
    ("khoarrow.cli", "check_commuting_square", "reduced.checks"),
    ("khoarrow.cli", "check_graph_span", "reduced.checks"),
    ("khoarrow.cli", "jones", "jones"),
)

LAYERS = sorted({layer for _, _, layer in TARGETS})


def _owner(path):
    """The module at `path`, the class named by its last component, or None."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, name = path.rpartition(".")
    return getattr(sys.modules.get(module), name, None)


class Tracer:
    """Span stack, per-layer self time and call counts, and work counts.

    ``counts`` holds whole-run counters; ``jobs`` holds structural
    records per job id (set ``job`` before each job runs).
    """

    def __init__(self):
        self._stack = []             # [start, time covered by children]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {"snf.entries": 0, "snf.max_entries": 0,
                       "reduced.lattice_rank": 0, "chain.generators": 0,
                       "chain.boundary_nnz": 0, "chain.boundary_bytes": 0}
        self.count_errors: set = set()
        self.absent: list = []
        self.jobs: dict = {}
        self.job = None

    def wrap(self, layer, fn):
        stack = self._stack
        counter = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = end - frame[0]
                self.self_s[layer] += span - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += span
            if counter is not None:
                # counting reads the result outside the span; its time is
                # kept out of the enclosing span's self time, and a result
                # it cannot read leaves the program's own result unharmed
                t0 = perf_counter()
                try:
                    counter(self, args, result)
                except Exception as exc:
                    self.count_errors.add(f"{layer}: {exc!r}")
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return result

        return wrapper

    def record(self):
        return self.jobs.setdefault(self.job, {
            "snf_blocks": {}, "complexes": []})


def _count_snf(tracer, args, result):
    M = args[0]
    if isinstance(M, np.ndarray):
        m, n = M.shape
    else:
        m, n = len(M), len(M[0]) if M else 0
    tracer.counts["snf.entries"] += m * n
    tracer.counts["snf.max_entries"] = max(
        tracer.counts["snf.max_entries"], m * n)
    blocks = tracer.record()["snf_blocks"]
    blocks[f"{m}x{n}"] = blocks.get(f"{m}x{n}", 0) + 1


def _complex_shape(c):
    return {
        "generators": {str(h): len(qs) for h, qs in sorted(c.groups.items())},
        "boundary_nnz": int(sum(np.count_nonzero(d)
                                for d in c.boundaries.values())),
        "boundary_bytes": int(sum(d.nbytes for d in c.boundaries.values())),
    }


def _count_unreduced(tracer, args, result):
    shape = _complex_shape(result)
    tracer.record()["complexes"].append({"theory": "unreduced", **shape})
    tracer.counts["chain.generators"] += sum(shape["generators"].values())
    tracer.counts["chain.boundary_nnz"] += shape["boundary_nnz"]
    tracer.counts["chain.boundary_bytes"] += shape["boundary_bytes"]


def _count_reduced(tracer, args, result):
    tracer.record()["complexes"].append(
        {"theory": "reduced", **_complex_shape(result)})


def _count_lattice(tracer, args, result):
    tracer.counts["reduced.lattice_rank"] += result.rank


_COUNTERS = {"snf": _count_snf, "chain.build": _count_unreduced,
             "reduced.build": _count_reduced,
             "reduced.lattice": _count_lattice}


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for path, attr, layer in TARGETS:
        owner = _owner(path)
        original = getattr(owner, attr, None)
        if original is None:
            # a later version may drop an entry point (``ev`` is slated
            # for removal); its layer then reads zero
            tracer.absent.append(f"{path}.{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(layer, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
