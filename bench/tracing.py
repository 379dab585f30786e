"""Spans around the public functions of each expconvex module.

Only the traced run installs the wrappers.  ``install`` wraps every public
function a layer module defines and rebinds every module-level name that
refers to it, including names other modules imported (``verify.trace_f``,
``cli.reduce``), so calls between layers are recorded too.  A span holds
its name, start, end, parent span and op id; spans stay in memory and are
written to a file at the end, and the per-layer metrics are computed from
that file.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "matrixio", "verify", "convexity", "transform", "reduction", "hermitian")

# span groups: metric prefix -> span names (fnmatch patterns, "module.function")
GROUPS = {
    "transform.eval": ("transform.trace_*", "transform.sample_trace_*"),
    "transform.growth": ("transform.growth_exponents",),
    "transform.fit": ("transform.fit_measure",),
    "transform.measure": ("transform.commuting_measure", "transform.laplace_*"),
    "convexity.gram": ("convexity.gram",),
    "convexity.psd": ("convexity.psd_check",),
    "reduction.reduce": ("reduction.reduce",),
    "reduction.residuals": ("reduction.reduction_residuals",),
    "hermitian.eigh": ("hermitian.eigh",),
    "hermitian.expm": ("hermitian.matrix_exp_hermitian",),
    "hermitian.lie": ("hermitian.lie_product_approx",),
    "matrixio.load": ("matrixio.load_*", "matrixio.matrix_from_doc"),
    "matrixio.dump": ("matrixio.dumps_doc", "matrixio.write_doc", "matrixio.*_to_doc"),
    "verify.case": ("verify.run_case",),
    "cli.main": ("cli.*",),
}


@functools.lru_cache(maxsize=None)
def _group(name: str) -> str | None:
    for group, patterns in GROUPS.items():
        if any(fnmatch.fnmatchcase(name, p) for p in patterns):
            return group
    return None


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # each span: [parent, name, op, start_ns, end_ns, error, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._pairs: dict[int, tuple[int, object]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        # strong references keep ids unique within the op
        self._pairs.clear()

    def _pair_serial(self, pair) -> int:
        entry = self._pairs.get(id(pair))
        if entry is None:
            entry = self._pairs[id(pair)] = (len(self._pairs), pair)
        return entry[0]

    def _annotate(self, group, name, args, result):
        if group == "transform.eval":
            ts = args[1] if len(args) > 1 else ()
            ts = np.atleast_1d(np.asarray(getattr(ts, "points", ts), dtype=float))
            return {"pair": self._pair_serial(args[0]), "ts": ts.tolist()}
        if name in ("matrixio.load_pair", "matrixio.load_matrix"):
            return {"bytes": os.path.getsize(args[0])}
        if name == "matrixio.dumps_doc":
            return {"bytes": len(result.encode("utf-8"))}
        if group == "verify.case":
            return {"failures": sum(1 for r in result if not getattr(r, "passed", True))}
        return None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        group = _group(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1, name, self.op, clock(), 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            rec[6] = self._annotate(group, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every name that refers to one."""
        package = importlib.import_module("expconvex")
        modules = {layer: importlib.import_module(f"expconvex.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps([sid, *rec]) + "\n")


def read_spans(path: str):
    """Span rows from a file that Tracer.write made, one at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


class _Open:
    """A span whose children are still being read."""

    __slots__ = ("sid", "group", "parent_group", "op", "ns", "child_ns", "eval_child", "error", "extra")

    def __init__(self, row, group, parent_group):
        self.sid, _, _, self.op, start, end, self.error, extra = row
        self.group, self.parent_group = group, parent_group
        self.ns, self.child_ns, self.eval_child = end - start, 0, False
        self.extra = extra or {}


def layer_metrics(rows, ops: int) -> dict[str, float]:
    """Per-op layer metrics from span rows ``[id, parent, name, op, start, end, error, extra]``.

    Rows come in the order the spans started, so a span's ancestors are
    exactly the spans still open when it is read; one pass with a stack
    finds each span's children.  Self time is a span's duration minus the
    time its child spans cover.  A call is a span whose parent is outside
    its group.  Evaluation points are counted on evaluation spans with no
    evaluation span below them; a point is a duplicate when the same pair
    was already evaluated at the same t, to 12 decimals, in the same op: on
    an equispaced grid the sums t_r + t_s that are equal in exact
    arithmetic can differ in the last bit.
    """
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    failures: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    spans = points = dups = 0
    seen: set[tuple] = set()
    seen_op = None

    def close(span: _Open) -> None:
        nonlocal points, dups, seen_op
        group = span.group
        if group is None:
            return
        self_ns[group] += span.ns - span.child_ns
        if span.parent_group != group:
            calls[group] += 1
            failures[group] += span.error is not None
        failures[group] += span.extra.get("failures", 0)
        nbytes[group] += span.extra.get("bytes", 0)
        if group == "transform.eval" and not span.eval_child:
            if seen_op != span.op:
                seen.clear()
                seen_op = span.op
            for t in span.extra.get("ts", ()):
                key = (span.extra["pair"], round(t, 12))
                dups += key in seen
                seen.add(key)
                points += 1

    stack: list[_Open] = []
    for row in rows:
        spans += 1
        parent = row[1]
        while stack and stack[-1].sid != parent:
            close(stack.pop())
        group = _group(row[2])
        top = stack[-1] if stack else None
        if top is not None:
            top.child_ns += row[5] - row[4]
            top.eval_child |= group == "transform.eval" == top.group
        stack.append(_Open(row, group, top.group if top else None))
    while stack:
        close(stack.pop())

    per_op = 1.0 / max(ops, 1)
    out = {}
    for group in GROUPS:
        out[f"{group}.self_s"] = self_ns[group] * 1e-9 * per_op
        out[f"{group}.calls"] = calls[group] * per_op
        out[f"{group}.failures"] = failures[group] * per_op
        out[f"{group}.bytes"] = nbytes[group] * per_op
    out["transform.eval.points"] = points * per_op
    out["transform.eval.dup_share"] = dups / points if points else 0.0
    out["trace.spans"] = spans * per_op
    return out
