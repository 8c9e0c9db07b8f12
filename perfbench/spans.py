"""Spans around the engine's public functions, for the traced run.

`traced(tracer)` wraps each function in `WRAPS` and patches the wrapper into
every `stonesheaf` module namespace that bound the original (so
`adelic.cb_rank` is wrapped as well as `space.cb_rank`, and recursive calls
are seen); methods are patched on their class.  Leaving the block restores
every original.

A wrapper records a span (name, start, end, parent) only while
`tracer.active` is set, which the benchmark sets around one op at a time.
`Tracer.end_op` folds the op's spans into per-name totals: calls, self time
(the span's duration minus the part of it that its child spans cover), and
the calls made inside a `random_cocycle` span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter

SCOPE = "adelic.random_cocycle"


def self_times(spans) -> list[float]:
    """Self time of each span in a list of (name, start, end, parent index)."""
    children = [[] for _ in spans]
    for i, (_name, _start, _end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span and count totals over the ops run while it is active."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.self_s = Counter()
        self.in_scope = Counter()
        self.extra = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def count(self, name: str):
        self.calls[name] += 1

    def end_op(self):
        """Fold the finished op's spans into the totals and drop them."""
        spans = self.spans
        for (name, _s, _e, parent), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.self_s[name] += own
            while parent is not None:
                if spans[parent][0] == SCOPE:
                    self.in_scope[name] += 1
                    break
                parent = spans[parent][3]
        self.spans = []
        self.stack = []


def _rref_cells(rows):
    return {"linalg.rref.cells": len(rows) * len(rows[0]) if rows else 0,
            "linalg.rref.nonzero": sum(1 for row in rows for x in row if x)}


def _then_mults(first, second):
    """Useful and dense multiplies of second.matrix @ first.matrix."""
    left, right = second.matrix, first.matrix
    inner = len(right)
    if any(len(row) != inner for row in left):
        return {}
    col_nnz = [sum(1 for row in left if row[l]) for l in range(inner)]
    row_nnz = [sum(1 for x in row if x) for row in right]
    cols = len(right[0]) if right else 0
    return {"linalg.then.useful": sum(a * b for a, b in zip(col_nnz, row_nnz)),
            "linalg.then.dense": len(left) * inner * cols}


def _below_rank(cx, degree, *_args, **_kwargs):
    return {"adelic.random_cocycle.below_rank": int(degree < cx.rank)}


COUNT_ONLY = "count"

# (module, attribute or Class.method, span name, measure)
WRAPS = [
    ("linalg", "rref", "linalg.rref", _rref_cells),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "LinMap.then", "linalg.then", _then_mults),
    ("linalg", "LinMap.apply", "linalg.apply", None),
    ("space", "cb_rank", "space.cb_rank", COUNT_ONLY),
    ("space", "parse_space", "space.parse_space", None),
    ("adelic", "random_cocycle", "adelic.random_cocycle", _below_rank),
    ("adelic", "AdelicComplex.differential", "adelic.differential", None),
    ("adelic", "AdelicComplex.exactness_witness", "adelic.exactness_witness", None),
    ("adelic", "dmap", "adelic.dmap", None),
    ("adelic", "CFun.add", "adelic.ring_ops", None),
    ("adelic", "CFun.sub", "adelic.ring_ops", None),
    ("adelic", "CFun.mul", "adelic.ring_ops", None),
    ("adelic", "CFun.scale", "adelic.ring_ops", None),
    ("weyl", "average_stalk", "weyl.average_stalk", None),
    ("weyl", "eq_random_cocycle", "weyl.eq_random_cocycle", None),
    ("weyl", "EqAdelicComplex.differential", "weyl.eq_differential", None),
    ("weyl", "EqAdelicComplex.exactness_witness", "weyl.eq_exactness_witness", None),
    ("weyl", "generator_epi", "weyl.generator_epi", None),
    ("sheaf", "random_csheaf", "sheaf.random_csheaf", None),
    ("sheaf", "sheaves_equal", "sheaf.sheaves_equal", None),
    ("cube", "stalkwise_cube_check", "cube.stalkwise_cube_check", None),
    ("homalg", "gamma", "homalg.gamma", None),
    ("homalg", "is_isomorphism", "homalg.is_isomorphism", None),
    ("homalg", "unit_iso", "homalg.unit_iso", None),
    ("homalg", "ext1_dim", "homalg.ext_dims", None),
    ("homalg", "ext2_dim", "homalg.ext_dims", None),
    ("models", "to_standard", "models.to_standard", None),
    ("models", "from_standard", "models.from_standard", None),
    ("models", "is_cocartesian", "models.is_cocartesian", None),
    ("models", "standard_of_sheaf", "models.completion", None),
    ("models", "kappa", "models.completion", None),
    ("models", "tau", "models.completion", None),
    ("models", "five_model_roundtrip", "models.completion", None),
    ("serialize", "csheaf_to_json", "serialize.to_json", None),
    ("serialize", "csheaf_from_json", "serialize.from_json", None),
    ("cli", "main", "cli.main", None),
]


def _wrap(tracer: Tracer, name: str, fn, measure):
    if measure == COUNT_ONLY:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if measure is not None:
            # measuring calls no wrapped function into the totals
            tracer.active = False
            try:
                tracer.extra.update(measure(*args, **kwargs))
            finally:
                tracer.active = True
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def engine_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "stonesheaf" or n.startswith("stonesheaf.")]


def install(tracer: Tracer) -> list:
    """Patch every wrap in; returns (owner, attribute, original) to restore."""
    restore = []
    modules = engine_modules()
    for module, attr, name, measure in WRAPS:
        owner = sys.modules[f"stonesheaf.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            restore.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, original, measure))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original, measure)
        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, bound, original))
                    setattr(mod, bound, wrapper)
    return restore


def uninstall(restore: list):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(tracer: Tracer):
    restore = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(restore)
