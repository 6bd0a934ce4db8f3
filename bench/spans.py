"""Span tracing of rareach's layers from outside the package.

:class:`Tracer` replaces selected public functions of the ``rareach``
modules, in every module namespace that holds them, with wrappers that
record one span per call: name, parent span, start and end.  Spans stay in
memory (up to ``MAX_SPANS``; later ones are only aggregated) and are written
out by :meth:`Tracer.dump` once the run is over.  :meth:`Tracer.restore`
puts the original functions back.

``ExecutionGraph.hb`` is a single bit test, cheaper than a span, so its
calls are only counted.  The happens-before closure it reads is a cached
property of the graph; its first computation per graph is the
``graph.hb_closure`` span, whichever caller (``hb``, ``hb_pairs``) asks.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  Every call into the program made by the benchmark is
attributed to a root label (the op or set-up phase) set with
:meth:`Tracer.root`.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from functools import cached_property
from time import perf_counter

#: raw spans kept in memory; later ones are only aggregated
MAX_SPANS = 200_000

MODULES = ("model", "graph", "consistency", "trace", "reduction", "decider", "pcp", "cli")

#: layer -> functions of that module whose calls become spans
WRAPPED = {
    "model": ("parse_program", "step_states"),
    "graph": ("build_graph", "reaches"),
    "consistency": ("check_ra",),
    "trace": ("make_trace", "canonical_trace"),
    "reduction": ("find_collapsible", "summary", "reduce"),
    "decider": ("bounded_reach", "naive_reach", "enumerate_graphs"),
    "pcp": ("parse_pcp", "compile_pcp", "pcp_witness", "check_no_skipping", "check_monotonicity"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # raw spans, one entry per column
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.dropped = 0
        # (root, name, parent name) -> [calls, total seconds, self seconds]
        self.agg: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.consistent = 0  # check_ra verdicts that were consistent
        self.yields = 0  # graphs yielded by enumerate_graphs
        self.hb_calls = 0  # calls of ExecutionGraph.hb
        self._stack: list[list] = []  # open spans: [name id, span index, child seconds, start]
        self._root = "-"
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"rareach.{m}") for m in MODULES]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"rareach.{layer}")
            for qual in names:
                fn = getattr(home, qual)
                wrapper = self._wrap(f"{layer}.{qual}", fn)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._swap(mod, attr, fn, wrapper)

        graph_cls = importlib.import_module("rareach.graph").ExecutionGraph
        hb = graph_cls.__dict__["hb"]

        def counted_hb(graph, a, b):
            self.hb_calls += 1
            return hb(graph, a, b)

        self._swap(graph_cls, "hb", hb, counted_hb)
        closure = graph_cls.__dict__["_succ_masks"]
        traced = cached_property(self._wrap("graph.hb_closure", closure.func))
        traced.__set_name__(graph_cls, "_succ_masks")
        self._swap(graph_cls, "_succ_masks", closure, traced)

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def root(self, label: str) -> None:
        self._root = label

    # -- recording -------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        idx = len(self.span_name)
        start = perf_counter()
        if idx < MAX_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, idx, 0.0, start]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, calls: int) -> None:
        end = perf_counter()
        self._stack.pop()
        nid, idx, child, start = frame
        dur = end - start
        if idx >= 0:
            self.span_end[idx] = end
        parent = self.names[self._stack[-1][0]] if self._stack else "-"
        if self._stack:
            self._stack[-1][2] += dur
        row = self.agg[(self._root, self.names[nid], parent)]
        row[0] += calls
        row[1] += dur
        row[2] += dur - child

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # a generator runs in slices, one per next(); each slice is a span
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls = 1
                try:
                    while True:
                        frame = enter(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            exit_(frame, calls)
                            calls = 0
                        self.yields += 1
                        yield item
                finally:
                    it.close()

        elif name == "consistency.check_ra":

            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    verdict = fn(*args, **kwargs)
                finally:
                    exit_(frame, 1)
                self.consistent += verdict.consistent
                return verdict

        else:

            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame, 1)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ---------------------------------------------------------------

    def total(self, name: str, *, parent: str | None = None, root: str | None = None) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name, optionally filtered."""
        calls, total, self_s = 0, 0.0, 0.0
        for (r, n, p), (c, t, s) in self.agg.items():
            if n == name and (parent is None or p == parent) and (root is None or r == root):
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def layer_self(self, layer: str) -> float:
        return sum((row[2] for (_, n, _), row in self.agg.items() if n.split(".", 1)[0] == layer), 0.0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "parent", "start", "end"],
                    "spans": list(zip(self.span_name, self.span_parent, self.span_start, self.span_end)),
                    "dropped": self.dropped,
                    "aggregate": [
                        {"root": r, "name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                        for (r, n, p), (c, t, s) in sorted(self.agg.items())
                    ],
                },
                fh,
            )
