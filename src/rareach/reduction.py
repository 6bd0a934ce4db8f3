"""Trace reduction: collapsing equivalent points of one run.

The engine looks for two positions of the same run after which the trace is
indistinguishable — same reachable control-state set, same locally written
values, same externally visible ordering — and removes everything between
them.  Iterating this to a fixpoint yields the small-model bound on how long
a trace ever needs to be for a given context budget.  :func:`reduction_steps`
is that iteration, the one reduction loop: it finds the π-first collapsible
pair and collapses it without proving the pair again, until none is left.

For an event ``e`` and location ``x``, ``lw(e, x)`` is the latest write of
``e``'s own run at or before ``e`` on ``x`` (plain writes only, unless update
events are admitted via ``rmw_mode``).  The summary of ``e`` packs:

* the subset of control states its thread can be in after its whole label
  prefix (all runs of that thread through ``e``),
* per location, the value of ``lw(e, x)`` (or none), and
* the set of locations where some read after ``lw(e, x)`` in the run took its
  value from elsewhere.

Two events ``e1`` strictly before ``e2`` in one run are collapsible when
their summaries agree, no write between them is observed outside the run,
and for every other thread's event the latest writes ``lw(e1, x)`` and
``lw(e2, x)`` are happens-before-indistinguishable (plus, with ``rmw_mode``,
a changed latest write must be a plain write, so no read gets rewired onto
an update).  Removing the range ``(e1, e2]`` then preserves consistency and
the set of reachable state vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import InternalValueMismatch, NotCollapsible, UnknownThread
from .graph import EventId, ExecutionGraph, build_graph
from .model import INIT_TID, Op, Program
from .trace import Run, Trace, make_trace, range_in_run

# --- latest local write and summaries ---------------------------------------


def lw(trace: Trace, eid: EventId, loc: str, rmw_mode: bool = False) -> EventId | None:
    """Latest same-run write on ``loc`` at or before ``eid``; None if absent.

    With ``rmw_mode`` update events count as writes too.
    """
    run = trace.runs[trace.run_of(eid)]
    off = trace.position[eid][1]
    g = trace.graph
    for e in reversed(run.events[: off + 1]):
        ev = g.events[e]
        if ev.loc != loc:
            continue
        if ev.op is Op.WRITE or (rmw_mode and ev.op is Op.RMW):
            return e
    return None


@dataclass(frozen=True)
class Summary:
    """What a run position looks like to the rest of the execution."""

    states: frozenset[str]
    last_write_vals: tuple[tuple[str, str | None], ...]
    foreign_reads: frozenset[str]


def summary(trace: Trace, program: Program, eid: EventId, rmw_mode: bool = False) -> Summary:
    """Summarise the trace position ``eid`` (see module docstring)."""
    g = trace.graph
    trace.run_of(eid)  # validate: run events only
    ev = g.events[eid]
    if ev.tid not in program.threads:
        raise UnknownThread(ev.tid)
    lts = program.threads[ev.tid]

    states: frozenset[str] = frozenset({lts.init})
    for e in g.po[ev.tid][: g.po_pos[eid] + 1]:
        states = lts.step(states, g.events[e].label)

    vals: list[tuple[str, str | None]] = []
    foreign: set[str] = set()
    for x in sorted(program.locs):
        w = lw(trace, eid, x, rmw_mode)
        if w is None:
            vals.append((x, None))
            continue
        vals.append((x, g.events[w].val_w))
        span = () if w == eid else range_in_run(trace, w, eid)
        for e in span:
            se = g.events[e]
            if se.op.reads and se.loc == x and g.rf[e] != w:
                foreign.add(x)
                break
    return Summary(states, tuple(vals), frozenset(foreign))


# --- collapsibility ----------------------------------------------------------


@dataclass(frozen=True)
class CollapsiblePair:
    first: EventId
    second: EventId
    #: the summary of ``first``, so that collapsing the pair need not recompute it
    _summary: Summary | None = field(default=None, compare=False, repr=False)


def collapsible(
    trace: Trace,
    program: Program,
    first: EventId,
    second: EventId,
    rmw_mode: bool = False,
) -> bool:
    """Whether the range ``(first, second]`` of their shared run can be removed."""
    return _check_pair(trace, program, first, second, rmw_mode, summaries={}) is not None


def _check_pair(
    trace: Trace,
    program: Program,
    first: EventId,
    second: EventId,
    rmw_mode: bool,
    summaries: dict[EventId, Summary],
) -> Summary | None:
    """The summary of ``first`` if ``(first, second]`` is collapsible, else None."""
    pos = trace.position
    for e in (first, second):
        if e not in pos:
            trace.run_of(e)  # raises UnknownEvent
    r1, o1, _ = pos[first]
    r2, o2, _ = pos[second]
    if r1 != r2 or o1 >= o2:
        return None

    def summ(e: EventId) -> Summary:
        if e not in summaries:
            summaries[e] = summary(trace, program, e, rmw_mode)
        return summaries[e]

    s1, s2 = summ(first), summ(second)
    if s1 != s2:
        return None

    g = trace.graph
    span = range_in_run(trace, first, second)
    span_writes = {e for e in span if g.events[e].op.writes}
    if span_writes:
        for r, w in g.rf.items():
            if w in span_writes and trace.run_of(r) != r1:
                return None

    tid = g.events[first].tid
    others = [e for e in g.non_init_events() if g.events[e].tid != tid]
    for x in sorted(program.locs):
        w1 = lw(trace, first, x, rmw_mode)
        w2 = lw(trace, second, x, rmw_mode)
        if w1 == w2:
            continue
        if rmw_mode:
            # summaries agree, so w1/w2 are both present here
            if g.events[w1].op is not Op.WRITE:
                return None
        for e in others:
            if _hb_opt(g, w1, e) != _hb_opt(g, w2, e):
                return None
    return s1


def _hb_opt(g: ExecutionGraph, w: EventId | None, e: EventId) -> bool:
    return w is not None and g.hb(w, e)


def find_collapsible(
    trace: Trace, program: Program, rmw_mode: bool = False
) -> CollapsiblePair | None:
    """First collapsible pair in π-lexicographic order, or None."""
    summaries: dict[EventId, Summary] = {}
    for run in trace.runs:
        evs = run.events
        for i in range(len(evs)):
            for j in range(i + 1, len(evs)):
                if s1 := _check_pair(trace, program, evs[i], evs[j], rmw_mode, summaries):
                    return CollapsiblePair(evs[i], evs[j], s1)
    return None


# --- the reduction step --------------------------------------------------------


def reduce(
    trace: Trace,
    program: Program,
    first: EventId,
    second: EventId,
    rmw_mode: bool = False,
) -> Trace:
    """Remove the range ``(first, second]``; :class:`NotCollapsible` unless collapsible."""
    s1 = _check_pair(trace, program, first, second, rmw_mode, summaries={})
    if s1 is None:
        raise NotCollapsible(f"({first!r}, {second!r}] is not a collapsible range")
    return _collapse(trace, first, second, rmw_mode, s1)


def _collapse(trace: Trace, first: EventId, second: EventId, rmw_mode: bool, s1: Summary) -> Trace:
    """Remove the range ``(first, second]``, already known to be collapsible.

    ``s1`` is the summary of ``first``.  Surviving reads of removed writes are
    rewired to the latest write at ``first``; modification order is
    restricted, transposing the two latest writes on locations whose local
    value survives unobserved from outside.
    """
    g = trace.graph
    removed = set(range_in_run(trace, first, second))

    events2 = [ev for eid, ev in g.events.items() if eid not in removed]
    po2 = {
        t: [e for e in row if e not in removed]
        for t, row in g.po.items()
        if t != INIT_TID
    }

    rf2: dict[EventId, EventId] = {}
    for r, w in g.rf.items():
        if r in removed:
            continue
        if w not in removed:
            rf2[r] = w
            continue
        x = g.events[r].loc
        if w != lw(trace, second, x, rmw_mode):
            raise InternalValueMismatch(
                f"removed writer {w!r} of {r!r} is not the latest write at {second!r}"
            )
        nw = lw(trace, first, x, rmw_mode)
        if nw is None or g.events[nw].val_w != g.events[r].val_r:
            raise InternalValueMismatch(
                f"cannot rewire read {r!r}: replacement write disagrees on value"
            )
        if rmw_mode and g.events[nw].op is Op.RMW:
            raise InternalValueMismatch(f"rewiring {r!r} onto update event {nw!r}")
        rf2[r] = nw

    mo2: dict[str, list[EventId]] = {}
    for x, row in g.mo.items():
        new_row = list(row)
        if dict(s1.last_write_vals).get(x) is not None and x not in s1.foreign_reads:
            w1 = lw(trace, first, x, rmw_mode)
            w2 = lw(trace, second, x, rmw_mode)
            if w1 != w2:
                i1, i2 = new_row.index(w1), new_row.index(w2)
                new_row[i1], new_row[i2] = new_row[i2], new_row[i1]
        mo2[x] = [e for e in new_row if e not in removed]

    runs2 = tuple(
        Run(run.tid, tuple(e for e in run.events if e not in removed))
        for run in trace.runs
    )
    return make_trace(build_graph(events2, po2, rf2, mo2), runs2)


def reduction_steps(
    trace: Trace, program: Program, rmw_mode: bool = False
) -> Iterator[tuple[CollapsiblePair, Trace]]:
    """Collapse π-first pairs until none remain, yielding each pair with the trace after it."""
    while (pair := find_collapsible(trace, program, rmw_mode)) is not None:
        trace = _collapse(trace, pair.first, pair.second, rmw_mode, pair._summary)
        yield pair, trace


def reduce_fixpoint(
    trace: Trace, program: Program, rmw_mode: bool = False
) -> tuple[Trace, list[CollapsiblePair]]:
    """Collapse π-first pairs until none remain; returns the trace and steps."""
    steps: list[CollapsiblePair] = []
    for pair, trace in reduction_steps(trace, program, rmw_mode):
        steps.append(pair)
    return trace, steps


# --- counting: summary space and the small-model bound ------------------------


def summary_space_formula(n_states: int, n_vals: int, n_locs: int) -> int:
    """Number of distinct summaries: 2^states · (vals+1)^locs · 2^locs."""
    return (2**n_states) * (n_vals + 1) ** n_locs * 2**n_locs


def summary_space(program: Program, tid: str | None = None) -> int:
    """Summary count for one thread, or the max over all threads."""
    n_vals, n_locs = len(program.vals), len(program.locs)
    if tid is not None:
        if tid not in program.threads:
            raise UnknownThread(tid)
        return summary_space_formula(len(program.threads[tid].states), n_vals, n_locs)
    n_states = max((len(l.states) for l in program.threads.values()), default=0)
    return summary_space_formula(n_states, n_vals, n_locs)


def small_model_bound_formula(s: int, n_locs: int, contexts: int, rmws: int) -> int:
    """Per-run length bound summed over runs.

    The last run needs at most ``s`` events; each earlier run additionally
    pays for every later event that may observe it: ``g(c) = s + (s+1) ·
    ((n_locs+1) · Σ_{j>c} g(j) + rmws)``.
    """
    if contexts < 1:
        raise ValueError("need at least one context")
    g = {contexts: s}
    for c in range(contexts - 1, 0, -1):
        tail = sum(g[j] for j in range(c + 1, contexts + 1))
        g[c] = s + (s + 1) * ((n_locs + 1) * tail + rmws)
    return sum(g.values())


def small_model_bound(program: Program, contexts: int, rmws: int) -> int:
    """Events any reaching trace ever needs within the budget."""
    return small_model_bound_formula(
        summary_space(program), len(program.locs), contexts, rmws
    )
