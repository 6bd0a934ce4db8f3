"""Reachability deciders.

Two engines answer "can this program reach its final state vector":

* :func:`naive_reach` enumerates every consistent execution graph up to an
  event count and checks each one — exponential but obviously correct, used
  as the ground truth in differential tests.
* :func:`bounded_reach` searches over traces directly: events are placed one
  at a time at the end of the active run (or of a freshly opened run while
  the context budget allows), reads branch over already-placed writers,
  writes over modification-order insertion points.  Each placed event stores
  its *view*: per location, the mo-latest write it sees, i.e. the join (by
  mo position) of its po-predecessor's view and its source's view, plus its
  own write; a thread without events sees the init writes.  Placements that
  already violate an axiom are pruned: a read whose source lies mo-below its
  thread's view, a write whose insertion point lies at or below it, and the
  update checks.  Since the axioms only ever forbid patterns that persist in
  extensions, pruning loses no witnesses.  Leaving the event cap at ``None``
  uses the small-model bound, making exhaustion a proof of unreachability
  within the budget.  The bound is computed once per search, in closed
  form, and exactly only up to a ceiling no search reaches; a truncated
  search whose bound passes it stays inconclusive.  The search state holds
  each fact once: per thread its control subset and its head (the view of
  its last event), per location its mo row of writes with their views, and
  the runs, whose per-thread stretches give po.

The search skips a node that an earlier node covers.  A node's future
depends only on its budget part (the active thread, the number of runs and
the number of updates used), its depth, and an abstract state, the key,
which is exact for everything else ``branches`` / ``violates`` / ``apply``
and the target check read:

* per thread its control subset, a mask over the thread's sorted states;
* the heads, as mo positions (``violates`` compares only those), in one
  flat tuple, thread after thread;
* per live row (a location that holds a non-init write): the location's
  index, the tag ``(value written, is an update)`` of each write in mo
  order, and the views of those writers as mo positions in one flat tuple,
  write after write.

Views cover only the live rows; the others read position 0 in every view.
Writes below every thread's view are dropped, the rows renumbered and the
views clamped to that cut: every future event already sees the cut write,
so no future read can take a write below it and no future write can go
before it.  The key is the state of the RA view semantics (Kang et al.,
POPL 2017; Abdulla, Arora, Atig and Krishna, PLDI 2019) with messages in mo
order.  The flat tuples lose nothing.  The key holds one entry per live
row, every view has one position per live row, and a row has one tag per
write; so the heads split back into one view per thread, and a row's flat
tuple into one view per write.  Two states therefore share a key exactly
when they share the per-thread views and the per-write ``(value, is an
update, view)`` entries, as with nested tuples.  The flat form is only
cheaper: CPython caches no tuple hash, so each memo lookup hashes every
nested tuple again.

The memo maps each key to records ``(active thread, runs, updates,
depth)``, one per node entered with it that nothing covered.  A record
``(a1, r1, u1, d1)`` covers a node ``(a2, r2, u2, d2)`` of the same key when
``d1 <= d2``, ``u1 <= u2`` and ``r1 + (a1 != a2) <= r2``: no more events
and updates, and no more runs, one fewer if the active threads differ (the
root's active thread is none, unlike every thread's).  This is the
covering check of well-structured search (Abdulla, Čerāns, Jonsson and
Tsay, LICS 1996), applied to the budget part only; the key must still
match exactly.  A covered node is skipped; any other node is recorded on
entry, and the records it covers are dropped, which loses nothing because
covering is transitive.  So each key keeps an antichain.

Covering is sound because the covering node can replay the covered node's
continuation event by event.  Each event is enabled and pruned alike, since
the key is exact and the update budget has no less left, and the replay
places as many events and updates.  It opens at most one run more: only the
first event can open a run in one node and not in the other (when it
belongs to ``a2 != a1``), and after it both active threads agree.  So the
covering node reaches whatever the covered one reaches within the budget
and the cap, in as many events.  Now suppose a hit lies within the cap but
the search closes without one.  Among the expanded nodes that reach a hit
within the cap, take one, N, with the fewest events h to such a hit; h > 0,
or N is that hit.  The continuation's first event is a branch of N that is
not pruned (the extension is consistent), and its child reaches the hit in
h - 1 events within the cap.  That child is not counted without being
placed (only the children of a settled frame are, and none of them can
hit), so it is expanded, or it is covered by an expanded node that reaches
a hit within the cap in at most h - 1 events: either way N was not the
fewest.  The same argument without the cap shows that if any hit is
reachable, the search finds one or sets the truncation flag: a node at the
cap with a branch sets it, and the capped children are counted without
being placed only once it is set.  So a search that closes without
truncation proves ``unreachable-within-bound`` at any cap.  Keys are built
only at nodes at least two events below the cap.  Keys one level higher
skip more (the PCP gadget at cap 4 expands 24,979 nodes instead of 46,503),
but their ``state_key`` calls cost more than the leaves they skip: with the
flat key, the covering check and the settled frames below, that search took
0.058 s against 0.032 s (best of seven, three rounds, Python 3.11.7, 2-CPU
x86-64 host, October 2026).

The search is one loop over a stack of per-node branch iterators, so its
depth is not bounded by Python's recursion limit.  Children on the cap
follow one rule: once some leaf has cut a branch off at the cap, a frame
none of whose children can hit is settled, and any other child is placed.
A child of a settled frame cannot truncate either (the flag is set), so it
matters only by its count: the node one event below the cap counts its
frame in one pass, children that pass the pruning check into ``visited``
and the others into ``prunes``, and builds no branch.  No child can hit
with two threads unfinished (an event moves one thread), nor with one whose
enabled labels never step it into its final state; that check ignores
sources, insertion points and the update budget, so it may refuse a frame
without a hit, whose children are then placed and counted alike.

The count sums one share per thread that may move: per enabled label the
children that pass ``violates`` and those it cuts.  While no update is
placed, a plain write's share is closed, ``len(row) - top`` kept and
``top`` cut (``count`` checks it against ``violates`` clause by clause);
other labels walk their sources and insertion points.  So a thread's share
reads only its control subset and head, the rows of its enabled labels'
locations and the update count.  The node's one event since its parent,
of thread t0 on location x, changes only t0's subset and head, x's row if
it writes, and the update count if it is an update.  So it leaves another
thread's share as at the parent unless the event is an update or writes x
while that thread has an enabled label on x.  A node two events below the
cap therefore builds a table on entry when a run is left to open (none
otherwise): each thread's share, their total, and per location the threads
with an enabled label on it.  A child one below the cap that still leaves
a run to open was entered since its parent built the table (the walk is
depth-first).  It starts from the total and, for t0 and each thread its
event touches (every thread after an update), adds the share now less the
share in the table.  After a write, the threads listed on x include t0,
which took such a label there.  A child with no run left lets only t0
move, so its count is t0's share alone.  A count that would cross
``max_nodes`` (the search must trip on the same child) places the children
too.  ``max_nodes`` bounds the nodes entered, covered ones included: a
covered node is applied, keyed and undone without adding to ``visited``,
and an uncapped loop can skip far more nodes than it expands.  The node
past the budget ends the search as ``INCONCLUSIVE``, even at the
small-model bound.

Branches are explored in a fixed sorted order, so verdicts, witnesses and
statistics are deterministic; ``explore_order`` seeds an optional
reproducible shuffle (0 keeps the canonical order) of every frame above
the cap's parents.  A frame one below the cap holds only leaves, never
keyed and each visited or pruned wherever it stands, so it stays
canonical, and settling never changes what the generator draws.
"""

from __future__ import annotations

import enum
import math
import random
import sys
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .consistency import check_ra
from .graph import EventId, ExecutionGraph, build_graph, reaches
from .model import INIT_TID, Form, Label, Op, Program, final_vector, write
from .reduction import small_model_bound
from .trace import ContextBudget, Run, Trace, canonical_trace, make_trace


#: ``stop_above`` of every search's small-model bound, exact up to here: no search places this many events.
_BOUND_CEILING = sys.maxsize


class ReachStatus(enum.Enum):
    REACHABLE = "reachable"
    UNREACHABLE_WITHIN_BOUND = "unreachable-within-bound"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SearchStats:
    visited: int = 0
    prunes: int = 0
    max_events: int = 0

    def to_json(self) -> dict:
        return {
            "visited": self.visited,
            "prunes": self.prunes,
            "maxEvents": self.max_events,
        }


@dataclass(frozen=True)
class ReachVerdict:
    status: ReachStatus
    witness: Trace | None
    explored: SearchStats

    @property
    def reachable(self) -> bool:
        return self.status is ReachStatus.REACHABLE


@dataclass(frozen=True)
class SearchConfig:
    """Budget plus an optional event cap, branch-order seed and node budget.

    ``max_nodes`` caps the nodes entered, ``SearchStats.visited`` plus the
    covered ones skipped (module docstring); ``None`` leaves it unbounded.
    A nonzero ``explore_order`` shuffles only the frames above the cap's parents.
    """

    budget: ContextBudget
    event_cap: int | None = None
    explore_order: int = 0
    max_nodes: int | None = None


# --- exhaustive enumeration ----------------------------------------------------


def _words_upto(form: Form, max_len: int) -> list[tuple[Label, ...]]:
    """Every label word of length <= max_len executable from the initial state."""
    out: list[tuple[Label, ...]] = [()]
    layer: list[tuple[tuple[Label, ...], int]] = [((), form.init)]
    for _ in range(max_len):
        layer = [(word + (lab,), image) for word, mask in layer for lab, _, image in form[mask]]
        out.extend(word for word, _ in layer)
    return out


def enumerate_graphs(program: Program, max_events: int) -> Iterator[ExecutionGraph]:
    """All consistent execution graphs with at most ``max_events`` events.

    Graphs are yielded in a fixed order and each at most once (per-thread
    words, reads-from choices and modification orders all differ between
    yields, and any of them distinguishes two graphs structurally).  Nothing
    is pruned: every candidate is built and goes through :func:`check_ra`
    once.  Candidates are built by ``build_graph(..., like=)`` from one event
    list per word combination, whose order gives po, so all mos of one
    reads-from choice share its po, its hb closure and its verdict table: one
    ``IRR_HB`` answer, and one ``Verdict`` object per ``(axiom, least
    witness)`` met.
    """
    tids = sorted(program.threads)
    locs = sorted(program.locs)
    words_per = [_words_upto(program.forms[t], max_events) for t in tids]
    for combo in product(*words_per):
        if sum(len(w) for w in combo) > max_events:
            continue
        yield from _graphs_for_words(program, locs, combo)


def _graphs_for_words(
    program: Program,
    locs: list[str],
    combo: tuple[tuple[Label, ...], ...],
) -> Iterator[ExecutionGraph]:
    # rows in the form build_graph normalises them to, valid by construction
    events: dict[EventId, Label] = {i: write(INIT_TID, x, program.init_vals[x]) for i, x in enumerate(locs)}
    for word in combo:
        events.update(zip(range(len(events), len(events) + len(word)), word))
    reads = [(e, lab) for e, lab in events.items() if lab.op.reads]
    writes = [(e, lab) for e, lab in events.items() if lab.op.writes]
    # ids, not labels: one word can repeat a label object (an update in a loop)
    cands = [[w for w, wl in writes if wl.loc == rl.loc and wl.val_w == rl.val_r and w != r] for r, rl in reads]
    if not all(cands):
        return  # some read has no writer to read from

    own = [[w for w, wl in writes if wl.loc == x and not wl.is_init] for x in locs]
    mo_rows = [[(i, *p) for p in permutations(row)] for i, row in enumerate(own)]

    for rf_choice in product(*cands):
        rf = {r: w for (r, _), w in zip(reads, rf_choice)}
        like = None  # hb is built from po and rf only: one closure serves every mo
        for choice in product(*mo_rows):
            mo = dict(zip(locs, choice))
            like = like or ExecutionGraph(events, rf, mo)
            graph = build_graph(events, rf, mo, like=like)
            if check_ra(graph).consistent:
                yield graph


def naive_reach(program: Program, max_events: int) -> ReachVerdict:
    """Ground-truth decision by exhaustive graph enumeration."""
    stats = SearchStats()
    target = final_vector(program)
    for graph in enumerate_graphs(program, max_events):
        stats.visited += 1
        stats.max_events = max(stats.max_events, len(graph.non_init_events()))
        if reaches(graph, program, target):
            return ReachVerdict(ReachStatus.REACHABLE, canonical_trace(graph), stats)
    return ReachVerdict(ReachStatus.UNREACHABLE_WITHIN_BOUND, None, stats)


# --- budgeted incremental search -------------------------------------------------


#: a branch, a plain tuple (a named tuple's constructor costs a Python call): thread, label, its image mask, the
#: thread view's mo position on the label's row, source, mo insertion point, location index and live mo row
_Branch = tuple[str, Label, int, int, EventId | None, int | None, int, list[int]]


def _covered(memo: dict[tuple, tuple[tuple, ...]], key: tuple, rec: tuple) -> bool:
    """Whether a record of ``key`` covers ``rec``, (active thread, runs, updates, depth); if none does, records it.

    A record covers a node that has at least its depth, updates and runs, one run more if their active
    threads differ (module docstring); the records ``rec`` covers are dropped, so each key keeps an antichain.
    """
    a, r, u, n = rec
    recs = memo.get(key, ())
    for a1, r1, u1, d1 in recs:
        if d1 <= n and u1 <= u and r1 + (a1 != a) <= r:
            return True
    memo[key] = (*[old for old in recs if not (n <= old[3] and u <= old[2] and r + (a != old[0]) <= old[1])], rec)
    return False


def bounded_reach(program: Program, config: SearchConfig) -> ReachVerdict:
    """Search traces within the context budget; see module docstring.

    A node is skipped when a node entered earlier with the same state key
    covers it (module docstring): it had no more events, updates and runs,
    one run fewer if their active threads differ.  So ``stats.visited``
    counts the nodes expanded or settled, and a search that closes without
    truncation answers ``UNREACHABLE_WITHIN_BOUND`` at any cap.  Which of two
    such nodes is expanded depends on branch order, and so do the witness
    and the counters.
    """
    budget = config.budget
    bound = small_model_bound(program, budget.contexts, budget.rmws, _BOUND_CEILING)
    cap = bound if config.event_cap is None else config.event_cap
    tids = sorted(program.threads)
    locs = sorted(program.locs)
    forms = program.forms
    finals = {t: forms[t].final for t in tids}  # per thread the bit of its final state
    rng = random.Random(config.explore_order) if config.explore_order else None

    events: list[Label] = [write(INIT_TID, x, program.init_vals[x]) for x in locs]
    n_init = len(events)
    # per event its view: per location (init write i is on locs[i]) the mo-latest write it sees
    init_view = tuple(range(n_init))
    views: list[tuple[int, ...]] = [init_view] * n_init
    at = [0] * n_init  # per write its index in its mo row (0 for reads)
    tags = [(lab.val_w, False) for lab in events]  # per event its key tag: (value written, is an update)
    subsets = {t: forms[t].init for t in tids}  # per thread its control subset as a mask
    heads = {t: init_view for t in tids}  # per thread the view of its last event
    mo_rows = [[i] for i in range(n_init)]  # per location, in locs order, its writes in mo order
    rf: dict[int, int] = {}
    runs: list[tuple[str, list[int]]] = []
    stats = SearchStats()
    # updates placed, and threads whose subset lacks their final state (0 at the target)
    flags = {"rmws": 0, "unfinished": sum(not subsets[t] & finals[t] for t in tids)}

    def hit_trace() -> Trace:
        # events sit in π order, so each thread's events are in po order
        graph = build_graph(list(enumerate(events)), dict(rf), {x: list(r) for x, r in zip(locs, mo_rows)})
        trace = make_trace(graph, tuple(Run(t, tuple(es)) for t, es in runs))
        # explicit raises, not asserts, so that python -O keeps them
        if not check_ra(graph).consistent:
            raise AssertionError("pruned search reached an inconsistent graph")
        if not reaches(graph, program, final_vector(program)):
            raise AssertionError("hit does not replay to the target")
        if not budget.admits(trace):
            raise AssertionError("hit exceeds its own budget")
        return trace

    def movers() -> list[str]:
        """The threads that may place the next event: all while a run can open, else the active one."""
        return tids if len(runs) < budget.contexts else [runs[-1][0]]

    def options(t: str) -> Iterator[tuple]:
        """Per enabled label of ``t``: label, image, the view's row position, location index, row, sources, spots."""
        head, spent = heads[t], flags["rmws"] >= budget.rmws
        for lab, i, image in forms[t][subsets[t]]:
            op = lab.op
            if op is Op.RMW and spent:
                continue
            row = mo_rows[i]
            # reads pick a same-valued writer, writes an mo insertion point, updates both
            srcs = [w for w in row if events[w].val_w == lab.val_r] if op.reads else (None,)
            yield lab, image, at[head[i]], i, row, srcs, range(1, len(row) + 1) if op.writes else (None,)

    def branches() -> list[_Branch]:  # sources in id order, as the canonical branch order has them
        return [(t, lab, image, top, w, p, i, row)
                for t in movers() for lab, image, top, i, row, ws, ps in options(t) for w in sorted(ws) for p in ps]

    def violates(lab: Label, top: int, src: EventId | None, pos: int | None, row: list[int]) -> bool:
        """The pruning rule; ``top`` is the mo position of the thread's view on ``row``."""
        # a source's own view holds the source on this row, and an update's source sits at pos - 1,
        # so the thread's view alone decides both coherence checks
        if lab.op.reads and top > at[src]:
            return True  # read coherence: an mo-later write happens before us
        if lab.op.writes:
            assert pos is not None
            if top >= pos:
                return True  # write coherence: we would be mo-before a write that happens before us
            # pruning keeps every placed update right after its source in mo,
            # so an insertion wedges one exactly when it lands on an update
            if pos < len(row) and events[row[pos]].op is Op.RMW:
                return True  # would wedge between an update and its source
        # an update's own source must be its immediate mo-predecessor
        return lab.op is Op.RMW and row[pos - 1] != src

    def count(t: str) -> tuple[int, int]:
        """The children of ``t`` that pass the pruning check, and those it cuts.

        While no update is placed, a plain write keeps ``len(row) - top`` insertion points, as in ``violates``:
        it reads no source and is no update, write coherence cuts exactly the ``top`` points at or below the
        view, and no point wedges an update, since no row holds one.  Other labels walk ``violates``.
        """
        head, spent, plain = heads[t], flags["rmws"] >= budget.rmws, not flags["rmws"]
        kept = cut = 0
        for lab, i, _ in forms[t][subsets[t]]:
            op, row, top = lab.op, mo_rows[i], at[head[i]]
            if op is Op.WRITE and plain:
                kept += len(row) - top
                cut += top
            elif op is not Op.RMW or not spent:
                for w in [w for w in row if events[w].val_w == lab.val_r] if op.reads else (None,):
                    for pos in range(1, len(row) + 1) if op.writes else (None,):
                        if violates(lab, top, w, pos, row):
                            cut += 1
                        else:
                            kept += 1
        return kept, cut

    def tabulate() -> tuple:
        """Per thread its count, their sum, and per location index the threads with an enabled label on it."""
        per = {t: count(t) for t in tids}
        on: list[list[str]] = [[] for _ in locs]
        for t in tids:
            for i in {i for _, i, _ in forms[t][subsets[t]]}:
                on[i].append(t)
        return per, (sum([k for k, _ in per.values()]), sum([c for _, c in per.values()])), on

    def settle(table: tuple | None, rec: tuple) -> bool:
        """Count a frame of capped children from the parent's ``table``, unless one may hit or the count crosses ``max_nodes``."""
        if flags["unfinished"] == 1:  # a hit needs the one unfinished thread to step into its final state
            u = next(t for t in tids if not subsets[t] & finals[t])
            if any(image & finals[u] for _, _, image in forms[u][subsets[u]]):
                return False  # the frame may hold a hit: its children are placed
        t0 = runs[-1][0]
        if len(runs) >= budget.contexts:
            kept, cut = count(t0)  # no run left to open: only t0 may move
        else:
            assert table is not None
            per, (kept, cut), on = table
            lab, i = rec[1], rec[2]
            # t0 took an enabled label on lab.loc (index i) at the parent, so it is among the threads listed there
            for t in tids if lab.op is Op.RMW else on[i] if lab.op.writes else (t0,):
                k, c = count(t)
                k0, c0 = per[t]
                kept += k - k0
                cut += c - c0
        if stats.visited + covered + kept > limit:
            return False  # the per-branch path trips on the same child
        stats.visited += kept
        stats.prunes += cut
        return True

    def apply(br: _Branch) -> tuple:
        t, lab, image, _, src, pos, i, row = br
        view = old_head = heads[t]
        eid = len(events)
        events.append(lab)
        tags.append((lab.val_w, lab.op is Op.RMW))
        at.append(0)
        old_subset = subsets[t]
        subsets[t] = image
        moved = (not image & finals[t]) - (not old_subset & finals[t])
        flags["unfinished"] += moved
        if lab.op.reads:
            assert src is not None
            rf[eid] = src
            # join with the source's view: per location the write at the higher mo position
            view = tuple(a if at[a] >= at[b] else b for a, b in zip(view, views[src]))
        if lab.op.writes:
            assert pos is not None
            row.insert(pos, eid)
            for j in range(pos, len(row)):
                at[row[j]] = j
            view = view[:i] + (eid,) + view[i + 1 :]
        views.append(view)
        heads[t] = view
        if lab.op is Op.RMW:
            flags["rmws"] += 1
        if runs and runs[-1][0] == t:
            runs[-1][1].append(eid)
        else:
            runs.append((t, [eid]))
        return (t, lab, i, row, old_subset, moved, old_head)

    def unapply(rec: tuple) -> None:
        t, lab, _, row, old_subset, moved, old_head = rec
        heads[t] = old_head
        eid = len(events) - 1
        events.pop()
        tags.pop()
        views.pop()
        subsets[t] = old_subset
        flags["unfinished"] -= moved
        if lab.op.reads:
            del rf[eid]
        if lab.op.writes:
            pos = at[eid]
            del row[pos]
            for j in range(pos, len(row)):
                at[row[j]] = j
        at.pop()
        if lab.op is Op.RMW:
            flags["rmws"] -= 1
        runs[-1][1].pop()
        if not runs[-1][1]:
            runs.pop()

    # state key -> the antichain of (active thread, runs, updates, depth) it was entered with
    memo: dict[tuple, tuple[tuple, ...]] = {}

    def state_key() -> tuple:
        hs = heads.values()
        # per live row (mo_rows is in locs order): location index, row, cut (the lowest position a head sees)
        live = [(i, row, min([at[v[i]] for v in hs])) for i, row in enumerate(mo_rows) if len(row) > 1]
        ic = [(i, c) for i, _, c in live]
        # per live row: index, its writes' tags from the cut on, then all their views as positions from the cuts
        # (0 below a cut) in one flat tuple
        rows = tuple([
            (i, tuple([tags[w] for w in row[c:]]), tuple([p - d if (p := at[views[w][j]]) > d else 0 for w in row[c:] for j, d in ic]))
            for i, row, c in live
        ])
        # the cuts are the heads' lowest positions, so the heads need no floor
        return tuple(subsets.values()), tuple([at[v[j]] - d for v in hs for j, d in ic]), rows

    limit = math.inf if config.max_nodes is None else config.max_nodes
    covered = 0  # nodes skipped as covered: they spend the node budget as visited ones do
    truncated = tripped = False
    table: tuple | None = None  # tabulate() at the last node entered two events below the cap, if a run was left to open
    # frames: (the node's unexplored branches, the record that undoes it)
    stack: list[tuple[Iterator[_Branch], tuple | None]] = []
    rec: tuple | None = None  # undoes the node just placed; None at the root
    while True:
        if stats.visited + covered >= limit:
            tripped = True
            break
        n = len(events) - n_init
        children: Iterator[_Branch] = iter(())
        # keys only two or more events below the cap (see the module docstring)
        if n <= cap - 2 and _covered(memo, state_key(), (runs[-1][0] if runs else None, len(runs), flags["rmws"], n)):
            covered += 1
        else:
            stats.visited += 1
            stats.max_events = max(stats.max_events, n)
            if not flags["unfinished"]:
                return ReachVerdict(ReachStatus.REACHABLE, hit_trace(), stats)
            if n >= cap:
                truncated = truncated or bool(branches())  # a leaf only needs to know whether it cuts anything off
            # once truncated, a capped child that cannot hit matters only by its count
            elif not (n + 1 == cap and truncated and settle(table, rec)):
                if n + 2 == cap:
                    table = tabulate() if len(runs) < budget.contexts else None
                out = branches()
                if rng is not None and n + 1 < cap:  # a frame one below the cap keeps its leaves in canonical order
                    rng.shuffle(out)
                children = iter(out)
        stack.append((children, rec))
        rec = None
        while rec is None and stack:
            children, up = stack[-1]
            br = next(children, None)
            if br is None:
                stack.pop()
                if up is not None:
                    unapply(up)
                continue
            _, lab, _, top, src, pos, _, row = br
            if violates(lab, top, src, pos, row):
                stats.prunes += 1
            else:
                rec = apply(br)
        if rec is None:
            break
    # a truncated search decides only at the small-model bound, which is exact up to the ceiling
    if tripped or (truncated and (cap < bound or bound > _BOUND_CEILING)):
        return ReachVerdict(ReachStatus.INCONCLUSIVE, None, stats)
    return ReachVerdict(ReachStatus.UNREACHABLE_WITHIN_BOUND, None, stats)
