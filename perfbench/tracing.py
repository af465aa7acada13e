"""Spans around the program's public callables, recorded from outside ``src/``.

``Tracer.installed()`` replaces each callable in ``TRACED`` with a wrapper
in every loaded ``spharcp`` module that binds it (so calls the program
makes internally, such as ``bench.run_replicate`` calling ``detect``, are
traced too) and restores the originals on exit. A span is
``(id, name, start, end, parent, op, extra)``; spans stay in memory until
the run ends. ``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _values(args, result):
    return int(result.data.size)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _dp_work(args, result):
    """(DP lookups, final segment fits) of one detect.

    The recursion consults (s, e) for s = 1..e-delta+1 whenever the prefix
    cost best_cost[s-1] is finite, so the lookup count follows from the
    returned Bellman table. Fits made under detect beyond the final
    segment fits are the lookups the loss cache did not serve.
    """
    if result.dp is None:
        return (0, len(result.fits))
    delta = result.config.delta
    finite = np.cumsum(np.isfinite(result.dp.best_cost))
    n = len(finite) - 1
    lookups = int(finite[: n - delta + 1].sum()) if n >= delta else 0
    return (lookups, len(result.fits))


# (module, attribute, span name, extra recorder). A dotted attribute names
# a method, wrapped on its class.
TRACED = (
    ("spharcp.bench", "run_replicate", "bench.run_replicate", None),
    ("spharcp.bench", "run_tuning_replicate", "bench.run_tuning_replicate", None),
    ("spharcp.simulate", "simulate", "simulate.simulate", _values),
    ("spharcp.io", "write_coefficients", "io.write_coefficients", _file_bytes),
    ("spharcp.io", "read_coefficients", "io.read_coefficients", _file_bytes),
    ("spharcp.estimate", "per_time_products", "estimate.per_time_products", None),
    ("spharcp.estimate", "IntervalLossEngine.fit", "estimate.IntervalLossEngine.fit", None),
    ("spharcp.estimate", "fit_segment_with_intercept", "estimate.fit_segment_with_intercept", None),
    ("spharcp.segment", "detect", "segment.detect", _dp_work),
    ("spharcp.segment", "objective_of", "segment.objective_of", None),
    ("spharcp.evaluate", "hausdorff_scaled", "evaluate.hausdorff_scaled", None),
    ("spharcp.evaluate", "assign_to_truth", "evaluate.assign_to_truth", None),
)

OP_SPAN = "op"


class Tracer:
    """Records nested spans; ``paused`` lets output checks run untraced."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.paused = False
        self._stack: list[int] = []
        self._next_id = 0
        self._op: int | None = None

    def _call(self, name, fn, extra, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
        self.spans.append(
            (sid, name, start, end, parent, self._op, extra(args, result) if extra else None)
        )
        return result

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, extra, args, kwargs)

        return traced

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op as the root span of ``op_id``."""
        self._op = op_id
        try:
            return self._call(OP_SPAN, fn, None, args, {})
        finally:
            self._op = None

    @contextmanager
    def installed(self):
        restore = []
        try:
            for module_name, attr, name, extra in TRACED:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self.wrap(name, original, extra))
                    restore.append((cls, method, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, extra)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "spharcp" and not mod_name.startswith("spharcp."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)


def check_nesting(spans) -> list[str]:
    """Every span lies inside its parent, shares its op, and siblings do not overlap."""
    by_id = {sp[0]: sp for sp in spans}
    children = defaultdict(list)
    errors = []
    for sp in spans:
        sid, name, start, end, parent, op, _ = sp
        if end < start:
            errors.append(f"span {sid} ({name}) ends before it starts")
        if parent is None:
            if name != OP_SPAN:
                errors.append(f"span {sid} ({name}) has no parent")
            continue
        par = by_id.get(parent)
        if par is None:
            errors.append(f"span {sid} ({name}) has unknown parent {parent}")
            continue
        if par[5] != op or start < par[2] or end > par[3]:
            errors.append(f"span {sid} ({name}) is not inside its parent {parent}")
        children[parent].append(sp)
    for kids in children.values():
        kids.sort(key=lambda sp: sp[2])
        for a, b in zip(kids, kids[1:]):
            if b[2] < a[3]:
                errors.append(f"sibling spans {a[0]} and {b[0]} overlap")
    return errors


# Per-op time metrics: span names summed, and whether self time is taken.
_TIME_LAYERS = {
    "simulate.s": (("simulate.simulate",), False),
    "io.write_s": (("io.write_coefficients",), False),
    "io.read_s": (("io.read_coefficients",), False),
    "estimate.fit_s": (("estimate.IntervalLossEngine.fit",), False),
    "estimate.products_s": (("estimate.per_time_products",), False),
    "estimate.segment_fit_s": (("estimate.fit_segment_with_intercept",), False),
    "segment.detect_s": (("segment.detect",), False),
    "segment.self_s": (("segment.detect",), True),
    "segment.objective_s": (("segment.objective_of",), False),
    "evaluate.s": (("evaluate.hausdorff_scaled", "evaluate.assign_to_truth"), False),
    "bench.op_self_s": ((OP_SPAN, "bench.run_replicate", "bench.run_tuning_replicate"), True),
}


# Per-op counts and rates pooled over all ops.
_POOLED_LAYERS = ("simulate.values", "io.file_mb", "io.write_mb_per_s", "io.read_mb_per_s",
                 "estimate.fit_calls", "estimate.fit_us", "segment.dp_lookups",
                 "segment.cache_hit_ratio")


def op_counts(spans) -> dict[int, dict[str, int]]:
    """Deterministic work counts per op: these must repeat exactly."""
    by_id = {sp[0]: sp for sp in spans}
    counts: dict[int, dict[str, int]] = defaultdict(
        lambda: {"simulate.values": 0, "io.file_bytes": 0, "estimate.fit_calls": 0,
                 "segment.dp_lookups": 0, "segment.dp_fits": 0}
    )
    for sid, name, start, end, parent, op, extra in spans:
        c = counts[op]
        if name == "simulate.simulate":
            c["simulate.values"] += extra
        elif name == "io.write_coefficients":
            c["io.file_bytes"] += extra
        elif name == "estimate.IntervalLossEngine.fit":
            c["estimate.fit_calls"] += 1
            if parent is not None and by_id[parent][1] == "segment.detect":
                c["segment.dp_fits"] += 1
        elif name == "segment.detect":
            lookups, final_fits = extra
            c["segment.dp_lookups"] += lookups
            c["segment.dp_fits"] -= final_fits
    return dict(counts)


def layer_metrics(spans, counted_ops) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are medians over ops of each op's total (or self) time in the
    layer; rates pool all ops. Counts and the cache hit ratio are per op
    over ``counted_ops`` only: a run's first cycle of ops, which the seed
    fixes, so they repeat exactly however many ops a run fits in.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp[4] is not None:
            child_time[sp[4]] += sp[3] - sp[2]
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, op, extra in spans:
        dur = end - start
        totals[name] += dur
        for metric, (names, self_time) in _TIME_LAYERS.items():
            if name in names:
                per_op[op][metric] += dur - child_time[sid] if self_time else dur
    ops = sorted(per_op)
    if not ops:
        return {m: 0.0 for m in (*_TIME_LAYERS, *_POOLED_LAYERS)}
    out = {m: statistics.median(per_op[op][m] for op in ops) for m in _TIME_LAYERS}

    counts = op_counts(spans)
    counted = [op for op in ops if op in counted_ops] or ops
    first = {k: sum(counts[op][k] for op in counted) for k in counts[ops[0]]}
    lookups = first["segment.dp_lookups"]
    fits = sum(1 for sp in spans if sp[1] == "estimate.IntervalLossEngine.fit")
    written = sum(sp[6] for sp in spans if sp[1] == "io.write_coefficients")
    read = sum(sp[6] for sp in spans if sp[1] == "io.read_coefficients")
    out.update({
        "simulate.values": first["simulate.values"] / len(counted),
        "io.file_mb": first["io.file_bytes"] / 1e6 / len(counted),
        "io.write_mb_per_s": written / 1e6 / totals["io.write_coefficients"] if written else 0.0,
        "io.read_mb_per_s": read / 1e6 / totals["io.read_coefficients"] if read else 0.0,
        "estimate.fit_calls": first["estimate.fit_calls"] / len(counted),
        "estimate.fit_us": totals["estimate.IntervalLossEngine.fit"] / fits * 1e6 if fits else 0.0,
        "segment.dp_lookups": lookups / len(counted),
        "segment.cache_hit_ratio": (
            (lookups - first["segment.dp_fits"]) / lookups if lookups else 0.0
        ),
    })
    return out
