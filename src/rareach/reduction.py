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

One forward sweep per run (:func:`_sweep`) computes what ``summary`` and
``lw`` define: it replays the thread's labels before the run once, then
carries the control-state subset, ``lw(e, x)`` per location and the
foreign-read set (a read of ``x`` whose source is not the current
``lw(e, x)`` adds ``x``; a new latest write on ``x`` clears it).  The pair
search sweeps a run only as far as it needs and tests only equal-summary
pairs, ``e1`` then ``e2`` in π order; unequal summaries are never
collapsible, so it returns the π-first pair that testing every pair would.
Happens-before comes from descendant masks: π extends hb, so reverse π order
is topological for the po and rf edges that generate hb from non-init events,
and one pass joining each event's po-successor and readers yields exactly the
events it happens before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator

from .errors import InternalValueMismatch, NotCollapsible, UnknownThread
from .graph import EventId, build_graph
from .model import INIT_TID, Op, Program
from .trace import Run, Trace, make_trace, range_in_run

# --- latest local write and summaries ---------------------------------------


def lw(trace: Trace, eid: EventId, loc: str, rmw_mode: bool = False) -> EventId | None:
    """Latest same-run write on ``loc`` at or before ``eid`` (updates too with ``rmw_mode``), or None."""
    run = trace.runs[trace.run_of(eid)]
    for e in reversed(run.events[: trace.position[eid][1] + 1]):
        ev = trace.graph.events[e]
        if ev.loc == loc and (ev.op is Op.WRITE or (rmw_mode and ev.op is Op.RMW)):
            return e
    return None


@dataclass(frozen=True)
class Summary:
    """What a run position looks like to the rest of the execution."""

    states: frozenset[str]
    last_write_vals: tuple[tuple[str, str | None], ...]
    foreign_reads: frozenset[str]


def _sweep(trace: Trace, program: Program, run: Run, rmw_mode: bool) -> Iterator[tuple[Summary, tuple]]:
    """Each position of ``run`` in turn: its summary and ``lw`` on every sorted location."""
    if run.tid not in program.threads:
        raise UnknownThread(f"thread {run.tid!r} of the trace is not declared by the program")
    lts, g = program.threads[run.tid], trace.graph
    states = frozenset({lts.init})
    for e in g.po[run.tid][: g.po_pos[run.events[0]]] if run.events else ():
        states = lts.step(states, g.events[e].label)
    locs = sorted(program.locs)
    slot = {x: k for k, x in enumerate(locs)}
    latest: list[EventId | None] = [None] * len(locs)
    vals: list[tuple[str, str | None]] = [(x, None) for x in locs]
    foreign: set[str] = set()
    for e in run.events:
        ev = g.events[e]
        states = lts.step(states, ev.label)
        if (k := slot.get(ev.loc)) is not None:
            if ev.op is Op.WRITE or (rmw_mode and ev.op is Op.RMW):
                latest[k], vals[k] = e, (ev.loc, ev.val_w)
                foreign.discard(ev.loc)
            elif ev.op.reads and latest[k] is not None and g.rf[e] != latest[k]:
                foreign.add(ev.loc)
        yield Summary(states, tuple(vals), frozenset(foreign)), tuple(latest)


def summary(trace: Trace, program: Program, eid: EventId, rmw_mode: bool = False) -> Summary:
    """Summarise the trace position ``eid`` (see module docstring)."""
    run = trace.runs[trace.run_of(eid)]
    return next(islice(_sweep(trace, program, run, rmw_mode), trace.position[eid][1], None))[0]


# --- collapsibility ----------------------------------------------------------


@dataclass(frozen=True)
class CollapsiblePair:
    first: EventId
    second: EventId
    #: the summary of ``first``, so that collapsing the pair need not recompute it
    _summary: Summary | None = field(default=None, compare=False, repr=False)


class _RunSweep:
    """One run's sweep, extended on demand, and the pair test on the positions swept.

    Per position it keeps the summary, interned to an int, the latest writes,
    and a prefix count of the run's writes that a read of another run observes.
    """

    def __init__(self, trace: Trace, program: Program, ri: int, rmw_mode: bool) -> None:
        self.trace, self.run, self.rmw_mode = trace, trace.runs[ri], rmw_mode
        self._steps = _sweep(trace, program, self.run, rmw_mode)
        self._ids: dict[Summary, int] = {}  # each summary swept, by order of first sight
        self.sid: list[int] = []
        self.lws: list[tuple] = []
        self.read_out = [0]  # read_out[k]: such observed writes before position k
        rf = trace.graph.rf
        self._observed = {rf[r] for k, run in enumerate(trace.runs) if k != ri for r in run.events if r in rf}

    def extend(self) -> bool:
        """Sweep one position further; False once the run is exhausted."""
        if (step := next(self._steps, None)) is None:
            return False
        self.sid.append(self._ids.setdefault(step[0], len(self._ids)))
        self.lws.append(step[1])
        self.read_out.append(self.read_out[-1] + (self.run.events[len(self.sid) - 1] in self._observed))
        return True

    @cached_property
    def _hb(self) -> tuple[int, dict[EventId, int]]:
        """Other threads' events as a mask over π positions, and each event's hb-successors as one."""
        g, pos = self.trace.graph, self.trace.position
        others = sum(1 << k for k, e in enumerate(self.trace.pi) if g.events[e].tid != self.run.tid)
        desc: dict[EventId, int] = {}
        readers: dict[EventId, int] = {}  # per write, the joined masks of its readers so far
        for e in reversed(self.trace.pi) if others else ():
            d = readers.get(e, 0)
            if (n := g.po_pos[e] + 1) < len(row := g.po[g.events[e].tid]):
                d |= 1 << pos[row[n]][2] | desc[row[n]]
            desc[e] = d
            if e in g.rf:
                readers[g.rf[e]] = readers.get(g.rf[e], 0) | 1 << pos[e][2] | d
        return others, desc

    def collapsible(self, i: int, j: int) -> bool:
        """Whether the swept positions ``i < j`` are collapsible."""
        if self.sid[i] != self.sid[j] or self.read_out[j + 1] != self.read_out[i + 1]:
            return False
        moved = [(w1, w2) for w1, w2 in zip(self.lws[i], self.lws[j]) if w1 != w2]
        # summaries agree, so both latest writes are present here
        if self.rmw_mode and any(self.trace.graph.events[w1].op is not Op.WRITE for w1, _ in moved):
            return False
        others, desc = self._hb if moved else (0, {})
        return not any((desc[w1] ^ desc[w2]) & others for w1, w2 in moved if others)

    def pair(self, i: int, j: int) -> CollapsiblePair:
        s1 = next(islice(self._ids, self.sid[i], None))
        return CollapsiblePair(self.run.events[i], self.run.events[j], s1)

    def first_pair(self) -> CollapsiblePair | None:
        """The π-first collapsible pair of the run, sweeping no further than it needs."""
        i = 0
        while i < len(self.sid) or self.extend():
            j = i + 1
            while j < len(self.sid) or self.extend():
                if self.collapsible(i, j):
                    return self.pair(i, j)
                j += 1
            i += 1
        return None


def _pair(trace: Trace, program: Program, first: EventId, second: EventId, rmw_mode: bool) -> CollapsiblePair | None:
    """The pair ``(first, second]`` if collapsible, else None."""
    for e in (first, second):
        trace.run_of(e)  # raises UnknownEvent unless ``e`` is in a run
    (r1, i, _), (r2, j, _) = trace.position[first], trace.position[second]
    if r1 != r2 or i >= j:
        return None
    sweep = _RunSweep(trace, program, r1, rmw_mode)
    while len(sweep.sid) <= j:
        sweep.extend()
    return sweep.pair(i, j) if sweep.collapsible(i, j) else None


def collapsible(trace: Trace, program: Program, first: EventId, second: EventId, rmw_mode: bool = False) -> bool:
    """Whether the range ``(first, second]`` of their shared run can be removed."""
    return _pair(trace, program, first, second, rmw_mode) is not None


def find_collapsible(trace: Trace, program: Program, rmw_mode: bool = False) -> CollapsiblePair | None:
    """First collapsible pair in π-lexicographic order, or None."""
    for ri in range(len(trace.runs)):
        if (pair := _RunSweep(trace, program, ri, rmw_mode).first_pair()) is not None:
            return pair
    return None


# --- the reduction step --------------------------------------------------------


def reduce(trace: Trace, program: Program, first: EventId, second: EventId, rmw_mode: bool = False) -> Trace:
    """Remove the range ``(first, second]``; :class:`NotCollapsible` unless collapsible."""
    pair = _pair(trace, program, first, second, rmw_mode)
    if pair is None:
        raise NotCollapsible(f"({first!r}, {second!r}] is not a collapsible range")
    return _collapse(trace, first, second, rmw_mode, pair._summary)


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
    po2 = {t: [e for e in row if e not in removed] for t, row in g.po.items() if t != INIT_TID}

    rf2: dict[EventId, EventId] = {}
    for r, w in g.rf.items():
        if r in removed:
            continue
        if w not in removed:
            rf2[r] = w
            continue
        x = g.events[r].loc
        if w != lw(trace, second, x, rmw_mode):
            raise InternalValueMismatch(f"removed writer {w!r} of {r!r} is not the latest write at {second!r}")
        nw = lw(trace, first, x, rmw_mode)
        if nw is None or g.events[nw].val_w != g.events[r].val_r:
            raise InternalValueMismatch(f"cannot rewire read {r!r}: replacement write disagrees on value")
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

    runs2 = tuple(Run(run.tid, tuple(e for e in run.events if e not in removed)) for run in trace.runs)
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
    return small_model_bound_formula(summary_space(program), len(program.locs), contexts, rmws)
