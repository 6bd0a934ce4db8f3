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
an update; without it, no read after ``e2`` in the run may observe an update
between them, which ``lw`` skips).  Removing the range ``(e1, e2]`` then
preserves consistency and the set of reachable state vectors.

One forward sweep per run (:func:`_sweep`) is the only implementation of
``summary`` and ``lw``: it replays the thread's labels before the run once,
then carries the control-state subset, ``lw(e, x)`` per location and the
foreign-read set (a read of ``x`` whose source is not the current
``lw(e, x)`` adds ``x``; a new latest write on ``x`` clears it).  An event
its thread's program cannot take stops the sweep with :class:`TraceError`.
The pair search sweeps a run only as far as it needs and tests only
equal-summary pairs, ``e1`` then ``e2`` in π order; unequal summaries are
never collapsible, so it returns the π-first pair that testing every pair
would.  Happens-before is the graph's own closure.  A collapse reads the
removed range, both ``lw`` tuples and the summary of ``e1`` off the sweep
that proved the pair, filters the proven trace's events, rf and mo, which
are in constructor form, straight into the trusted constructors, and reports
what it did: the reads it rewired and the locations whose mo it transposed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator

from .errors import InternalValueMismatch, NotCollapsible, TraceError, UnknownThread
from .graph import EventId, ExecutionGraph
from .model import Op, Program
from .trace import Run, Trace

# --- summaries -----------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    """What a run position looks like to the rest of the execution."""

    states: frozenset[str]
    last_write_vals: tuple[tuple[str, str | None], ...]
    foreign_reads: frozenset[str]


def _sweep(trace: Trace, program: Program, run: Run, rmw_mode: bool) -> Iterator[tuple[tuple, tuple]]:
    """Each position of ``run`` in turn: its :class:`Summary` as a tuple, states as a mask, and ``lw`` per sorted location."""
    if run.tid not in program.threads:
        raise UnknownThread(f"thread {run.tid!r} of the trace is not declared by the program")
    form, g = program.forms[run.tid], trace.graph
    locs = sorted(program.locs)
    slot = {x: k for k, x in enumerate(locs)}
    latest: list[EventId | None] = [None] * len(locs)
    vals: list[tuple[str, str | None]] = [(x, None) for x in locs]
    foreign: set[str] = set()
    states = form.init
    start = g.po_pos[run.events[0]] if run.events else 0  # the thread's events before the run
    for n, e in enumerate(g.po.get(run.tid, ())[: start + len(run.events)]):
        ev = g.events[e]
        if not (states := form.step(states, ev)):
            raise TraceError(f"thread {run.tid!r} of the program cannot take event {e!r} ({ev})")
        if n < start:
            continue
        if (k := slot.get(ev.loc)) is not None:
            if ev.op is Op.WRITE or (rmw_mode and ev.op is Op.RMW):
                latest[k], vals[k] = e, (ev.loc, ev.val_w)
                foreign.discard(ev.loc)
            elif ev.op.reads and latest[k] is not None and g.rf[e] != latest[k]:
                foreign.add(ev.loc)
        yield (states, tuple(vals), frozenset(foreign)), tuple(latest)


def summary(trace: Trace, program: Program, eid: EventId, rmw_mode: bool = False) -> Summary:
    """Summarise the trace position ``eid`` (see module docstring)."""
    run = trace.runs[trace.run_of(eid)]
    states, vals, foreign = next(islice(_sweep(trace, program, run, rmw_mode), trace.position[eid][1], None))[0]
    return Summary(program.forms[run.tid].names(states), vals, foreign)


# --- collapsibility ----------------------------------------------------------


@dataclass(frozen=True)
class CollapsiblePair:
    first: EventId
    second: EventId


class _RunSweep:
    """One run's sweep, extended on demand, and the pair test on the positions swept.

    Per position it keeps the summary id (``ids`` numbers the summaries in
    order of first sight), the latest writes on ``locs``, and a prefix count of
    the run's writes that a read of another run observes.
    """

    def __init__(self, trace: Trace, program: Program, ri: int, rmw_mode: bool) -> None:
        self.trace, self.run, self.rmw_mode = trace, trace.runs[ri], rmw_mode
        self.locs = sorted(program.locs)
        self._steps = _sweep(trace, program, self.run, rmw_mode)
        self.ids: dict[tuple, int] = {}
        self.sid: list[int] = []
        self.lws: list[tuple] = []
        self.read_out = [0]  # read_out[k]: such observed writes before position k
        g, at = trace.graph, {e: k for k, e in enumerate(self.run.events)}
        self._observed = {g.rf[r] for k, run in enumerate(trace.runs) if k != ri for r in run.events if r in g.rf}
        # outside rmw_mode, an update's run position -> that of a later read of the run observing it
        self._update_reads = {} if rmw_mode else {
            at[w]: p for p, r in enumerate(self.run.events) if (w := g.rf.get(r)) in at and g.events[w].op is Op.RMW}

    def extend(self) -> bool:
        """Sweep one position further; False once the run is exhausted."""
        if (step := next(self._steps, None)) is None:
            return False
        self.sid.append(self.ids.setdefault(step[0], len(self.ids)))
        self.lws.append(step[1])
        self.read_out.append(self.read_out[-1] + (self.run.events[len(self.sid) - 1] in self._observed))
        return True

    @cached_property
    def _others(self) -> int:
        """Other threads' events as a mask over the graph's ``_index``."""
        g = self.trace.graph
        return sum(1 << g._index[e] for e in g.non_init_events() if g.events[e].tid != self.run.tid)

    def collapsible(self, i: int, j: int) -> bool:
        """Whether the swept positions ``i < j`` are collapsible."""
        if self.sid[i] != self.sid[j] or self.read_out[j + 1] != self.read_out[i + 1]:
            return False
        if any(i < q <= j < p for q, p in self._update_reads.items()):
            return False
        g = self.trace.graph
        moved = [(w1, w2) for w1, w2 in zip(self.lws[i], self.lws[j]) if w1 != w2]
        # summaries agree, so both latest writes are present here
        if self.rmw_mode and any(g.events[w1].op is not Op.WRITE for w1, _ in moved):
            return False
        others = self._others if moved else 0
        return not others or not any((g._succ_masks[w1] ^ g._succ_masks[w2]) & others for w1, w2 in moved)


#: a collapsible pair as the sweep of its run and its two positions in the run
_Found = tuple[_RunSweep, int, int]
#: a read rewired by a collapse: (read, old writer, new writer)
_Rewire = tuple[EventId, EventId, EventId]


def _first_pair(trace: Trace, program: Program, rmw_mode: bool) -> _Found | None:
    """The π-first collapsible pair, sweeping each run no further than it needs."""
    for ri in range(len(trace.runs)):
        sweep = _RunSweep(trace, program, ri, rmw_mode)
        i = 0
        while i < len(sweep.sid) or sweep.extend():
            j = i + 1
            while j < len(sweep.sid) or sweep.extend():
                if sweep.collapsible(i, j):
                    return sweep, i, j
                j += 1
            i += 1
    return None


def _pair(trace: Trace, program: Program, first: EventId, second: EventId, rmw_mode: bool) -> _Found | None:
    """The pair ``(first, second]`` if collapsible, else None."""
    for e in (first, second):
        trace.run_of(e)  # raises UnknownEvent unless ``e`` is in a run
    (r1, i, _), (r2, j, _) = trace.position[first], trace.position[second]
    if r1 != r2 or i >= j:
        return None
    sweep = _RunSweep(trace, program, r1, rmw_mode)
    while len(sweep.sid) <= j:
        sweep.extend()
    return (sweep, i, j) if sweep.collapsible(i, j) else None


def collapsible(trace: Trace, program: Program, first: EventId, second: EventId, rmw_mode: bool = False) -> bool:
    """Whether the range ``(first, second]`` of their shared run can be removed."""
    return _pair(trace, program, first, second, rmw_mode) is not None


def find_collapsible(trace: Trace, program: Program, rmw_mode: bool = False) -> CollapsiblePair | None:
    """First collapsible pair in π-lexicographic order, or None."""
    if (found := _first_pair(trace, program, rmw_mode)) is None:
        return None
    sweep, i, j = found
    return CollapsiblePair(sweep.run.events[i], sweep.run.events[j])


# --- the reduction step --------------------------------------------------------


def reduce(trace: Trace, program: Program, first: EventId, second: EventId, rmw_mode: bool = False) -> Trace:
    """Remove the range ``(first, second]``; :class:`NotCollapsible` unless collapsible."""
    if (found := _pair(trace, program, first, second, rmw_mode)) is None:
        raise NotCollapsible(f"({first!r}, {second!r}] is not a collapsible range")
    return _collapse(*found)[0]


def _collapse(sweep: _RunSweep, i: int, j: int) -> tuple[Trace, list[_Rewire], list[str]]:
    """Remove the run range after position ``i`` up to ``j``, which ``sweep`` proved collapsible.

    Surviving reads of removed writes are rewired to the latest write at
    ``i``; modification order is restricted, transposing the two latest
    writes on locations whose local value survives unobserved from outside.
    Returns the new trace, the rewires, and the locations whose restricted
    mo row the transposition changed (a removed write may leave it as it was).
    """
    g, rmw_mode, second = sweep.trace.graph, sweep.rmw_mode, sweep.run.events[j]
    removed = set(sweep.run.events[i + 1 : j + 1])
    _, vals1, foreign1 = list(sweep.ids)[sweep.sid[i]]
    lw1, lw2 = dict(zip(sweep.locs, sweep.lws[i])), dict(zip(sweep.locs, sweep.lws[j]))

    events2 = {eid: ev for eid, ev in g.events.items() if eid not in removed}

    rf2: dict[EventId, EventId] = {}
    rewires: list[_Rewire] = []
    for r, w in g.rf.items():
        if r in removed:
            continue
        if w not in removed:
            rf2[r] = w
            continue
        x = g.events[r].loc
        if w != lw2[x]:
            raise InternalValueMismatch(f"removed writer {w!r} of {r!r} is not the latest write at {second!r}")
        nw = lw1[x]
        if nw is None or g.events[nw].val_w != g.events[r].val_r:
            raise InternalValueMismatch(f"cannot rewire read {r!r}: replacement write disagrees on value")
        if rmw_mode and g.events[nw].op is Op.RMW:
            raise InternalValueMismatch(f"rewiring {r!r} onto update event {nw!r}")
        rf2[r] = nw
        rewires.append((r, w, nw))

    mo2: dict[str, tuple[EventId, ...]] = {}
    swapped: list[str] = []
    for x, row in g.mo.items():
        new_row = list(row)
        if dict(vals1).get(x) is not None and x not in foreign1:
            w1, w2 = lw1[x], lw2[x]
            if w1 != w2:
                i1, i2 = new_row.index(w1), new_row.index(w2)
                new_row[i1], new_row[i2] = new_row[i2], new_row[i1]
        mo2[x] = tuple(e for e in new_row if e not in removed)
        if mo2[x] != tuple(e for e in row if e not in removed):
            swapped.append(x)

    runs2 = tuple(Run(run.tid, tuple(e for e in run.events if e not in removed)) for run in sweep.trace.runs)
    return Trace(ExecutionGraph(events2, rf2, mo2), runs2), rewires, swapped


def reduction_steps(
    trace: Trace, program: Program, rmw_mode: bool = False
) -> Iterator[tuple[CollapsiblePair, Trace, tuple[EventId, ...], list[_Rewire], list[str]]]:
    """Collapse π-first pairs until none remain, yielding per step the pair, the trace
    after it, the removed range, the rewires and the locations whose mo it transposed."""
    # TraceError unless executable, UnknownThread for any run of an undeclared thread, empty runs included
    for run in {run.tid: run for run in trace.runs if run.events or run.tid not in program.threads}.values():
        deque(_sweep(trace, program, run, rmw_mode), maxlen=0)
    while (found := _first_pair(trace, program, rmw_mode)) is not None:
        sweep, i, j = found
        pair = CollapsiblePair(sweep.run.events[i], sweep.run.events[j])
        trace, rewires, swapped = _collapse(sweep, i, j)
        yield pair, trace, sweep.run.events[i + 1 : j + 1], rewires, swapped


def reduce_fixpoint(
    trace: Trace, program: Program, rmw_mode: bool = False
) -> tuple[Trace, list[CollapsiblePair]]:
    """Collapse π-first pairs until none remain; returns the trace and steps."""
    steps: list[CollapsiblePair] = []
    for pair, trace, *_ in reduction_steps(trace, program, rmw_mode):
        steps.append(pair)
    return trace, steps


# --- counting: summary space and the small-model bound ------------------------


def summary_space_formula(n_states: int, n_vals: int, n_locs: int) -> int:
    """Number of distinct summaries: 2^states · (vals+1)^locs · 2^locs."""
    return (2**n_states) * (n_vals + 1) ** n_locs * 2**n_locs


def summary_space(program: Program) -> int:
    """Summary count of the thread with the most control states."""
    n_states = max((len(l.states) for l in program.threads.values()), default=0)
    return summary_space_formula(n_states, len(program.vals), len(program.locs))


def small_model_bound_formula(s: int, n_locs: int, contexts: int, rmws: int, stop_above: int | None = None) -> int:
    """Per-run length bound summed over runs.

    The last run needs at most ``s`` events; each earlier run additionally
    pays for every later event that may observe it: ``g(c) = s + (s+1) ·
    ((n_locs+1) · Σ_{j>c} g(j) + rmws)``.  Adding a run in front multiplies
    the total by ``a = 1 + (s+1)·(n_locs+1)`` and adds ``b = s + (s+1)·rmws``,
    so the bound is ``s·a^(c-1) + b·(a^(c-1) − 1)/(a − 1)``.  With
    ``stop_above``, once ``k = (bitlen(s) − 1) + (c − 1)·(bitlen(a) − 1)``
    reaches ``bitlen(stop_above)`` the result is ``stop_above + 1`` and no
    power is computed; this is sound because then ``stop_above <
    2^bitlen(stop_above) <= 2^k <= s·a^(c-1) <= bound``.  Otherwise the
    result is the bound, so it exceeds ``stop_above`` exactly when the
    bound does.
    """
    if contexts < 1:
        raise ValueError("need at least one context")
    a, b = 1 + (s + 1) * (n_locs + 1), s + (s + 1) * rmws
    if stop_above is not None and s.bit_length() - 1 + (contexts - 1) * (a.bit_length() - 1) >= stop_above.bit_length():
        return stop_above + 1
    p = a ** (contexts - 1)
    return s * p + b * (p - 1) // (a - 1)


def small_model_bound(program: Program, contexts: int, rmws: int, stop_above: int | None = None) -> int:
    """Events any reaching trace ever needs within the budget (see the formula for ``stop_above``)."""
    return small_model_bound_formula(summary_space(program), len(program.locs), contexts, rmws, stop_above)
