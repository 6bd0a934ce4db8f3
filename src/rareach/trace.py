"""Traces: execution graphs linearised into context runs.

A run is one contiguous program-order segment of one thread.  A trace pairs a
graph with a run sequence that partitions its non-init events; the
concatenation of the runs (written π here and there) must extend
happens-before.  π is *not* required to extend modification order — runs may
observe mo inversions across context switches.

Runs are numbered from 1 (their context id).  Budgets bound the number of
runs and the number of update events a trace may use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NotHbExtension,
    NotPartition,
    ParseError,
    RunNotContiguous,
    RunThreadMixed,
    UnknownEvent,
)
from .graph import (
    EventId,
    ExecutionGraph,
    graph_from_json,
    graph_to_json,
    json_field,
    _json_data,
)
from .model import INIT_TID, Op


@dataclass(frozen=True)
class Run:
    """A maximal-or-not stretch of one thread's events, in program order."""

    tid: str
    events: tuple[EventId, ...]


@dataclass(frozen=True)
class ContextBudget:
    """Limits for bounded search: number of runs and of update events."""

    contexts: int
    rmws: int = 0

    def __post_init__(self) -> None:
        if self.contexts < 1:
            raise ValueError("need at least one context")
        if self.rmws < 0:
            raise ValueError("rmws must be non-negative")

    def admits(self, trace: Trace) -> bool:
        n_runs, n_rmws = counts(trace)
        return n_runs <= self.contexts and n_rmws <= self.rmws


class Trace:
    """A (graph, runs) pair; :func:`make_trace` validates one where data enters,
    and a reduction step, filtering a validated one, calls this constructor."""

    def __init__(self, graph: ExecutionGraph, runs: tuple[Run, ...]) -> None:
        self.graph = graph
        self.runs = runs

    @cached_property
    def pi(self) -> tuple[EventId, ...]:
        """All run events, concatenated."""
        return tuple(e for run in self.runs for e in run.events)

    @cached_property
    def position(self) -> dict[EventId, tuple[int, int, int]]:
        """event id -> (run index, offset inside run, offset inside π)."""
        out: dict[EventId, tuple[int, int, int]] = {}
        k = 0
        for ri, run in enumerate(self.runs):
            for off, e in enumerate(run.events):
                out[e] = (ri, off, k)
                k += 1
        return out

    def run_of(self, eid: EventId) -> int:
        try:
            return self.position[eid][0]
        except KeyError:
            raise UnknownEvent(f"event {eid!r} is not in any run") from None

    def __repr__(self) -> str:
        return f"<Trace {len(self.pi)} events in {len(self.runs)} runs>"


def make_trace(graph: ExecutionGraph, runs: tuple[Run, ...] | list[Run]) -> Trace:
    """Validate a run sequence against its graph."""
    runs = tuple(runs)
    seen: set[EventId] = set()
    for run in runs:
        if run.tid == INIT_TID:
            raise RunThreadMixed("init events cannot appear in runs")
        for e in run.events:
            if e not in graph.events:
                raise UnknownEvent(f"run mentions unknown event {e!r}")
            if graph.events[e].tid != run.tid:
                raise RunThreadMixed(f"event {e!r} is not of thread {run.tid!r}")
            if e in seen:
                raise NotPartition(f"event {e!r} appears in two runs")
            seen.add(e)
        if run.events:
            row = graph.po[run.tid]
            start = graph.po_pos[run.events[0]]
            if tuple(row[start : start + len(run.events)]) != run.events:
                raise RunNotContiguous(
                    f"run over {run.tid!r} is not a contiguous po segment"
                )
    missing = [e for e in graph.non_init_events() if e not in seen]
    if missing:
        raise NotPartition(f"events not covered by any run: {missing[:5]!r}")

    # π extends happens-before exactly when it extends the po and rf edges
    # the closure is built from; init events sit outside π with no edge into them
    trace = Trace(graph, runs)
    pos = trace.position
    edges = [(a, b) for t in graph.tids() for a, b in zip(graph.po[t], graph.po[t][1:])]
    for a, b in edges + [(w, r) for r, w in graph.rf.items()]:
        if a in pos and pos[a][2] >= pos[b][2]:
            raise NotHbExtension(f"run order contradicts happens-before ({a!r} vs {b!r})")
    return trace


# --- queries -----------------------------------------------------------------


def counts(trace: Trace) -> tuple[int, int]:
    """(number of runs, number of update events across all runs)."""
    n_rmws = sum(
        1 for run in trace.runs for e in run.events if trace.graph.events[e].op is Op.RMW
    )
    return (len(trace.runs), n_rmws)


def canonical_trace(graph: ExecutionGraph) -> Trace:
    """Deterministic run partition of a consistent graph.

    Threads are scheduled round-robin in sorted order; each turn drains every
    event whose happens-before predecessors are already placed, producing one
    run per maximal schedulable segment.
    """
    pending = {t: list(graph.po[t]) for t in graph.tids()}
    placed: set[EventId] = set(graph.init_events())
    runs: list[Run] = []
    remaining = sum(len(v) for v in pending.values())
    while remaining:
        progressed = False
        for t in sorted(pending):
            seg: list[EventId] = []
            row = pending[t]
            while row:
                e = row[0]
                src = graph.rf.get(e)
                if src is not None and src not in placed:
                    break
                seg.append(e)
                placed.add(e)
                row.pop(0)
            if seg:
                runs.append(Run(t, tuple(seg)))
                remaining -= len(seg)
                progressed = True
        if not progressed:
            raise NotHbExtension("graph has no happens-before linearisation")
    return make_trace(graph, tuple(runs))


# --- JSON --------------------------------------------------------------------


def trace_to_json(trace: Trace) -> dict:
    return {
        "graph": graph_to_json(trace.graph),
        "runs": [{"tid": run.tid, "events": list(run.events)} for run in trace.runs],
    }


def trace_from_json(data: dict) -> Trace:
    try:
        graph = graph_from_json(data["graph"])
        runs = tuple(Run(json_field(r["tid"], str), tuple(json_field(e, int, str) for e in r["events"]))
                     for r in data["runs"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad trace JSON: {exc}") from exc
    return make_trace(graph, runs)


def load_trace_json(text: str) -> Trace:
    return trace_from_json(_json_data(text))


def dump_trace_json(trace: Trace) -> str:
    return json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n"
