"""In-process tracing of liecoh from outside the library.

`Tracer.installed()` replaces every public function of the library's
modules, wherever a module imported it, and a fixed list of methods,
with wrappers that record spans (name, start, end, parent, query id) in
memory.  `layer_metrics` turns the spans into per-layer numbers.
`Counter.installed()` counts scalar operations and brackets in a
separate pass, because wrapping the arithmetic operators would distort
the self times of the traced pass.

Spans assume one thread: the library runs single-threaded while
LIECOH_THREADS is unset, which the benchmark guarantees.

Which end-to-end figure each layer should move, and where:
  scalars.*.calls, linalg.rank_kernel.*     queries_per_s on ce-su3 and
                                            bigraded-su3 (not structure-survey)
  linalg.rref.*                             bigraded-su3 (CR representatives)
  linalg.solve_linear.*, cohomology.BasisedAlgebra.init.*, decompose.*
                                            assembly-su3
  cohomology complex build, cohomology.verify (d o d)
                                            ce-su3 and bigraded-su3
  linalg.split_eigen/hermitian_inertia, roots.*, classify.*, torus.*
                                            structure-survey
  cli.main.self_s (argparse and JSON)       query_s_p50 on structure-survey
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("linalg", "algebra", "classify", "roots", "cohomology", "decompose", "torus")

# Element-level helpers cost less per call than a wrapper would add.
LEAF_HELPERS = {
    "linalg": {"as_scalar", "vector", "vec_add", "vec_sub", "vec_scale", "vec_conj", "vec_dot",
               "vec_is_zero", "poly_eval"},
    "cohomology": {"basised"},
}

# (module, class, attribute, span name)
METHODS = (
    ("algebra", "Subalgebra", "span", "algebra.Subalgebra.span"),
    ("algebra", "Subalgebra", "coordinates_of", "algebra.Subalgebra.coordinates_of"),
    ("algebra", "Subalgebra", "is_subalgebra", "algebra.Subalgebra.is_subalgebra"),
    ("algebra", "Subalgebra", "from_json_dict", "algebra.Subalgebra.from_json_dict"),
    ("algebra", "LieAlgebra", "from_json_dict", "algebra.LieAlgebra.from_json_dict"),
    ("cohomology", "BasisedAlgebra", "__init__", "cohomology.BasisedAlgebra.init"),
    ("cohomology", "CochainComplex", "verify", "cohomology.verify"),
    ("cohomology", "BigradedComplex", "verify", "cohomology.verify"),
    ("linalg", "ExactMatrix", "matmul", "linalg.matmul"),
)


def _bits(x) -> int:
    return max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
               x.im.numerator.bit_length(), x.im.denominator.bit_length())


def _rank_kernel_counts(args, result):
    m = args[0]
    return {
        "linalg.rank_kernel.cells": m.rows * m.cols,
        "linalg.rank_kernel.nnz": sum(1 for r in m.row_list() for x in r if not x.is_zero()),
    }


# Work counts taken at a call's boundary: cells are rows x cols of the
# operand for elimination, rows x inner x cols for a product, and the sum
# of rows x cols over the differentials a cohomology computation reduces;
# kernel_max_bits is the largest coefficient in any fraction-free echelon
# form, which is where elimination coefficients grow.
COUNTS = {
    "linalg.rank_kernel": _rank_kernel_counts,
    "linalg._bareiss_echelon": lambda a, r: {
        "linalg.kernel_max_bits": max((_bits(x) for row in r[0] for x in row), default=0)
    },
    "linalg.solve_linear": lambda a, r: {"linalg.solve_linear.cells": a[0].rows * a[0].cols},
    "linalg.matmul": lambda a, r: {"linalg.matmul.cells": a[0].rows * a[0].cols * a[1].cols},
    "cohomology._chain_dims": lambda a, r: {
        "cohomology.cochain_cells": sum(a[0][k].rows * a[0][k].cols for k in a[1])
    },
}
MAX_COUNTS = {"linalg.kernel_max_bits"}
COUNT_ONLY = (("linalg", "_bareiss_echelon"), ("cohomology", "_chain_dims"))


def _library_modules():
    return [importlib.import_module(f"liecoh.{m}") for m in (*MODULES, "cli")] + [
        importlib.import_module("liecoh")
    ]


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.counts = defaultdict(int)
        self.query = None
        self._stack = []

    def wrap(self, name, fn, span=True):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTS.get(name)

        def add_counts(args, result):
            for key, value in counter(args, result).items():
                counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            add_counts(args, result)
            return result

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                add_counts(args, result)
            return result

        wrapper = traced if span else counted
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library's public functions and the listed methods."""
        patches = _Patches()
        modules = _library_modules()
        try:
            targets = {}
            for short in MODULES:
                mod = importlib.import_module(f"liecoh.{short}")
                for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                    if fn.__module__ == mod.__name__ and not attr.startswith("_") \
                            and attr not in LEAF_HELPERS.get(short, ()):
                        targets[fn] = f"{short}.{attr}"
            targets[importlib.import_module("liecoh.cli").main] = "cli.main"
            wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
            # private functions that only count, so that their callers'
            # self time keeps the work they do
            for short, attr in COUNT_ONLY:
                fn = getattr(importlib.import_module(f"liecoh.{short}"), attr)
                wrappers[fn] = self.wrap(f"{short}.{attr}", fn, span=False)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        patches.set(mod, attr, wrappers[value])
            for short, cls_name, attr, name in METHODS:
                cls = getattr(importlib.import_module(f"liecoh.{short}"), cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patches.set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    patches.set(cls, attr, self.wrap(name, raw))
            yield self
        finally:
            patches.restore()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")


class Counter:
    """Counts GaussianRational add/sub, mul and div, and LieAlgebra.bracket."""

    OPS = (("__add__", "add"), ("__radd__", "add"), ("__sub__", "add"),
           ("__mul__", "mul"), ("__rmul__", "mul"), ("__truediv__", "div"))

    def __init__(self):
        self.counts = defaultdict(int)

    def _counting(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        from liecoh.algebra import LieAlgebra
        from liecoh.scalars import GaussianRational

        patches = _Patches()
        try:
            for attr, op in self.OPS:
                patches.set(GaussianRational, attr,
                            self._counting(f"scalars.{op}.calls", GaussianRational.__dict__[attr]))
            patches.set(LieAlgebra, "bracket",
                        self._counting("algebra.LieAlgebra.bracket.calls", LieAlgebra.__dict__["bracket"]))
            yield self
        finally:
            patches.restore()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Per span: its length minus the part of it covered by its children."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - union_length(clipped))
    return out


def layer_metrics(spans, rounds: int = 1) -> dict:
    """calls, self_s and busy_s per span name and busy_s per module, each
    per round, plus trace.coverage: the share of cli.main wall covered
    by library spans, summed over queries."""
    own = self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    by_name, by_module = defaultdict(list), defaultdict(list)
    wall, covered = 0.0, defaultdict(list)
    for (name, start, end, _, query), t in zip(spans, own):
        calls[name] += 1
        self_s[name] += t
        by_name[name].append((start, end))
        if name == "cli.main":
            wall += end - start
        else:
            by_module[name.split(".", 1)[0]].append((start, end))
            covered[query].append((start, end))
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / rounds
        out[f"{name}.self_s"] = self_s[name] / rounds
        out[f"{name}.busy_s"] = union_length(by_name[name]) / rounds
    for mod, intervals in by_module.items():
        out[f"{mod}.busy_s"] = union_length(intervals) / rounds
    out["trace.coverage"] = sum(union_length(v) for v in covered.values()) / wall if wall else 0.0
    return out
