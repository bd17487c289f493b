"""Span tracing of the wjl layers, installed from outside the library.

`Tracer.installed()` replaces each traced function at every name its callers
look it up under (a function imported with `from .x import f` is looked up in
the importing module, a method on its class) with a wrapper that records a
span `(name, start, end, parent)` and layer counts, and restores the
originals on exit.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _bsize(*arrays) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)), dtype=np.int64))


# Counting hooks: (tracer, span name, call args, result), run after the call returns.
def _count_elems(tr, name, args, out):
    tr.counts[name + ".elems"] += np.size(args[0])


def _count_pairs(tr, name, args, out):
    tr.counts[name + ".elems"] += _bsize(args[0], args[1])


def _count_entries(tr, name, args, out):
    matrix, rows, cols = args[:3]
    tr.counts[name + ".entries"] += _bsize(rows, cols)
    cols = np.asarray(cols).ravel()
    tr.counts[name + ".columns"] += cols.size
    tr.distinct[name].update((matrix.seed, matrix.k, matrix.d, int(c)) for c in cols)


def _count_cell_keys(tr, name, args, out):
    coefficients, t = np.asarray(args[0]), np.asarray(args[1])
    cells = int(np.prod(coefficients.shape[:-1]))
    tr.counts[name + ".cell_keys"] += _bsize(coefficients[..., 0], t)
    # A hash array is identified by its first polynomial and its size, which
    # stays correct when a freed array's memory is reused by the next sketch.
    tag = (cells, coefficients.reshape(-1, 8)[0].tobytes())
    seen = tr.distinct[name]
    for key in np.unique(t.ravel()).tolist():
        if (tag, key) not in seen:
            seen.add((tag, key))
            tr.counts[name + ".distinct_cell_keys"] += cells


def _count_cells(tr, name, args, out):
    tr.counts[name + ".cells"] += np.size(args[0])


def _count_updates(tr, name, args, out):
    tr.counts[name + ".updates"] += np.size(args[2])


def _count_written(tr, name, args, out):
    tr.counts[name + ".bytes"] += len(out)


def _count_read(tr, name, args, out):
    tr.counts[name + ".bytes_read"] += len(args[-1])


# (span name, [(module, attribute), ...], counting hook, track peak memory)
# Modules are named relative to the wjl package; "" is the package itself.
TRACED = [
    ("mix.finalize_array", [("_mix", "finalize_array"), ("projection", "finalize_array"),
                            ("hashing", "finalize_array"), ("sketch", "finalize_array")], _count_elems, False),
    ("projection.entry_exponents", [("projection", "ProjectionMatrix.entry_exponents")], _count_entries, False),
    ("projection.reduce_sparse", [("projection", "reduce_sparse"), ("harness", "reduce_sparse"),
                                  ("cli", "reduce_sparse"), ("", "reduce_sparse")], None, True),
    ("projection.rho", [("projection", "rho"), ("harness", "rho"), ("cli", "rho"), ("", "rho")], None, False),
    ("projection.rho_pairwise", [("projection", "rho_pairwise"), ("", "rho_pairwise")], None, False),
    ("projection.wjlr.write", [("projection", "ReducedVector.to_bytes")], _count_written, False),
    ("projection.wjlr.read", [("projection", "ReducedVector.from_bytes")], _count_read, False),
    ("hashing.coefficients_for_seeds", [("hashing", "coefficients_for_seeds"),
                                        ("sketch", "coefficients_for_seeds")], _count_cells, False),
    ("hashing.hash_eval_exponents", [("hashing", "hash_eval_exponents"),
                                     ("sketch", "hash_eval_exponents")], _count_cell_keys, False),
    ("hashing.mulmod61", [("hashing", "mulmod61")], _count_pairs, False),
    ("sketch.update_many", [("sketch", "StreamSketch.update_many")], _count_updates, True),
    ("sketch.ingest_pair", [("sketch", "ingest_pair"), ("harness", "ingest_pair")], None, False),
    ("sketch.sketch_estimate", [("sketch", "sketch_estimate"), ("harness", "sketch_estimate"),
                                ("", "sketch_estimate")], None, False),
    ("sketch.wjls.write", [("sketch", "StreamSketch.to_bytes")], _count_written, False),
    ("sketch.wjls.read", [("sketch", "StreamSketch.from_bytes")], _count_read, False),
    *[
        (f"harness.{fn}", [("harness", fn), ("cli", fn)], None, False)
        for fn in ("run_fig1", "run_fig2", "run_fig3", "run_fig4", "run_sketch_eval", "render_histogram")
    ],
    ("harness.sketch_success_rate", [("harness", "sketch_success_rate")], None, False),
    ("generators.gen_pair", [("generators", "gen_pair"), ("harness", "gen_pair"),
                             ("cli", "gen_pair"), ("", "gen_pair")], None, False),
    ("cli.main", [("cli", "main")], None, False),
]


class Tracer:
    """Span recorder; one thread, spans nest through a stack."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self.peak_mb = defaultdict(float)

    def _wrap(self, name, fn, count, track_peak):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            if track_peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if track_peak:
                    self.peak_mb[name] = max(self.peak_mb[name], tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self, name, args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper in TRACED; restore the originals on exit."""
        saved = []
        try:
            for name, sites, count, track_peak in TRACED:
                for module, attr in sites:
                    owner = importlib.import_module(f"wjl.{module}" if module else "wjl")
                    *path, attr = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = inspect.getattr_static(owner, attr)
                    if isinstance(original, classmethod):
                        replacement = classmethod(self._wrap(name, original.__func__, count, track_peak))
                    else:
                        replacement = self._wrap(name, original, count, track_peak)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return {k: tuple(v) for k, v in out.items()}

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics derived from one traced phase (units in BENCHMARK.json)."""
    times = tr.self_times()
    c = tr.counts

    def calls(n):
        return float(times.get(n, (0, 0.0, 0.0))[0])

    def incl(n):
        return times.get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return times.get(n, (0, 0.0, 0.0))[2]

    fa, ee, he = "mix.finalize_array", "projection.entry_exponents", "hashing.hash_eval_exponents"
    m = {
        f"{fa}.elems": c[f"{fa}.elems"],
        f"{fa}.self_s": self_s(fa),
        f"{fa}.ns_per_elem": _ratio(self_s(fa) * 1e9, c[f"{fa}.elems"]),
        f"{ee}.entries": c[f"{ee}.entries"],
        f"{ee}.self_s": self_s(ee),
        f"{ee}.ns_per_entry": _ratio(self_s(ee) * 1e9, c[f"{ee}.entries"]),
        f"{ee}.useful_ratio": _ratio(len(tr.distinct[ee]), c[f"{ee}.columns"]),
        "projection.reduce_sparse.calls": calls("projection.reduce_sparse"),
        "projection.reduce_sparse.self_s": self_s("projection.reduce_sparse"),
        "projection.reduce_sparse.peak_mb": tr.peak_mb["projection.reduce_sparse"],
        "projection.rho.calls": calls("projection.rho"),
        "projection.rho.self_s": self_s("projection.rho"),
        "projection.rho_pairwise.self_s": self_s("projection.rho_pairwise"),
        "projection.wjlr.bytes": c["projection.wjlr.write.bytes"],
        "projection.wjlr.write_s": incl("projection.wjlr.write"),
        "projection.wjlr.read_s": incl("projection.wjlr.read"),
        "hashing.coefficients_for_seeds.cells": c["hashing.coefficients_for_seeds.cells"],
        "hashing.coefficients_for_seeds.self_s": self_s("hashing.coefficients_for_seeds"),
        f"{he}.cell_keys": c[f"{he}.cell_keys"],
        f"{he}.self_s": self_s(he),
        f"{he}.ns_per_cell_key": _ratio(self_s(he) * 1e9, c[f"{he}.cell_keys"]),
        f"{he}.useful_ratio": _ratio(c[f"{he}.distinct_cell_keys"], c[f"{he}.cell_keys"]),
        "hashing.mulmod61.elems": c["hashing.mulmod61.elems"],
        "hashing.mulmod61.self_s": self_s("hashing.mulmod61"),
        "sketch.update_many.updates": c["sketch.update_many.updates"],
        "sketch.update_many.self_s": self_s("sketch.update_many"),
        "sketch.update_many.peak_mb": tr.peak_mb["sketch.update_many"],
        "sketch.ingest_pair.calls": calls("sketch.ingest_pair"),
        "sketch.ingest_pair.self_s": self_s("sketch.ingest_pair"),
        "sketch.sketch_estimate.calls": calls("sketch.sketch_estimate"),
        "sketch.sketch_estimate.self_s": self_s("sketch.sketch_estimate"),
        "sketch.wjls.bytes": c["sketch.wjls.write.bytes"],
        "sketch.wjls.write_s": incl("sketch.wjls.write"),
        "sketch.wjls.read_s": incl("sketch.wjls.read"),
        "generators.gen_pair.calls": calls("generators.gen_pair"),
        "generators.gen_pair.self_s": self_s("generators.gen_pair"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for fn in ("run_fig1", "run_fig2", "run_fig3", "run_fig4", "run_sketch_eval",
               "sketch_success_rate", "render_histogram"):
        m[f"harness.{fn}.self_s"] = self_s(f"harness.{fn}")
    return m
