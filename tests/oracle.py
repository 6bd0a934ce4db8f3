"""Independent reference implementations used to cross-check the library.

Every function here recomputes a quantity through a different route than the
package does: closures by per-source BFS instead of bitset mask passes, axioms
by explicit relational composition over materialized pair sets, the length
bound by a memoized recursive functional instead of the iterative table,
collapsibility pair by pair from the definitions instead of one sweep per run,
a collapse from backward latest-write scans instead of the sweep's records,
and context-bounded reachability (:func:`view_reach`) by the operational view
semantics instead of the axioms, with one control state per thread instead of
a subset, breadth-first instead of depth-first.  Keeping both routes alive is
the point — tests compare them, they must not share code.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from rareach.graph import EventId, ExecutionGraph, build_graph
from rareach.model import INIT_TID, Op
from rareach.trace import Run, make_trace


def bfs_closure(
    nodes: list[EventId], edges: list[tuple[EventId, EventId]]
) -> set[tuple[EventId, EventId]]:
    """Transitive closure as a pair set, one BFS per source node."""
    adj: dict[EventId, list[EventId]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
    pairs: set[tuple[EventId, EventId]] = set()
    for s in nodes:
        seen: set[EventId] = set()
        dq = deque(adj[s])
        while dq:
            v = dq.popleft()
            if v in seen:
                continue
            seen.add(v)
            pairs.add((s, v))
            dq.extend(adj[v])
    return pairs


def hb_pairs_oracle(graph: ExecutionGraph) -> set[tuple[EventId, EventId]]:
    """Happens-before from first principles: po, rf and init edges, closed."""
    nodes = list(graph.events)
    edges: list[tuple[EventId, EventId]] = []
    for t, row in graph.po.items():
        if t == INIT_TID:
            continue
        edges.extend(zip(row, row[1:]))
    edges.extend((w, r) for r, w in graph.rf.items())
    firsts = [row[0] for t, row in graph.po.items() if t != INIT_TID and row]
    for e0 in graph.init_events():
        edges.extend((e0, f) for f in firsts)
    return bfs_closure(nodes, edges)


def _compose(
    rel: set[tuple[EventId, EventId]], then: set[tuple[EventId, EventId]]
) -> set[tuple[EventId, EventId]]:
    by_src: dict[EventId, set[EventId]] = {}
    for b, c in then:
        by_src.setdefault(b, set()).add(c)
    return {(a, c) for a, b in rel for c in by_src.get(b, ())}


def axiom_failures_oracle(graph: ExecutionGraph) -> dict[str, bool]:
    """Which of the four irreflexivity axioms fail, by relation algebra."""
    hb = hb_pairs_oracle(graph)
    mo: set[tuple[EventId, EventId]] = set()
    for row in graph.mo.values():
        for i, a in enumerate(row):
            for b in row[i + 1 :]:
                mo.add((a, b))
    rf_inv = set(graph.rf.items())  # stored read -> writer, which IS rf^-1

    def reflexive(rel: set[tuple[EventId, EventId]]) -> bool:
        return any(a == b for a, b in rel)

    return {
        "irr-hb": reflexive(hb),
        "write-coherence": reflexive(_compose(mo, hb)),
        "read-coherence": reflexive(_compose(_compose(mo, hb), rf_inv)),
        "atomicity": reflexive(_compose(_compose(mo, mo), rf_inv)),
    }


def _id_order(eid: EventId) -> tuple:
    return (1, eid) if isinstance(eid, str) else (0, eid)


def least_violation_oracle(graph: ExecutionGraph) -> tuple[bool, str | None, tuple | None]:
    """``(consistent, axiom, least witness)`` from each axiom's definition, pair by pair.

    Witnesses are listed as the checker shapes them (see ``Verdict``) by
    testing every candidate tuple against the hb pair set and the mo pairs;
    the first failing axiom in checking order reports its least witness,
    ints before strings.
    """
    hb = hb_pairs_oracle(graph)
    mo = {(a, b) for row in graph.mo.values() for i, a in enumerate(row) for b in row[i + 1 :]}
    writes = [e for e, lab in graph.events.items() if lab.op.writes]
    witnesses = {
        "irr-hb": [(e,) for e in graph.events if (e, e) in hb],
        "write-coherence": [(w, w2) for w, w2 in mo if (w2, w) in hb],
        "read-coherence": [
            (w, r, w2) for r, w in graph.rf.items() for w2 in writes if (w, w2) in mo and (w2, r) in hb
        ],
        "atomicity": [
            (w, r, w2)
            for r, w in graph.rf.items()
            if graph.events[r].op is Op.RMW
            for w2 in writes
            if (w, w2) in mo and (w2, r) in mo
        ],
    }
    for axiom in ("irr-hb", "write-coherence", "read-coherence", "atomicity"):
        if witnesses[axiom]:
            return False, axiom, min(witnesses[axiom], key=lambda w: tuple(map(_id_order, w)))
    return True, None, None


def consistent_oracle(graph: ExecutionGraph) -> bool:
    return not any(axiom_failures_oracle(graph).values())


def bound_oracle(s: int, n_locs: int, contexts: int, rmws: int) -> int:
    """The length bound as a literal recursive functional."""

    @lru_cache(maxsize=None)
    def g(c: int) -> int:
        if c == contexts:
            return s
        tail = sum(g(j) for j in range(c + 1, contexts + 1))
        return s + (s + 1) * ((n_locs + 1) * tail + rmws)

    return sum(g(c) for c in range(1, contexts + 1))


def pcp_concat_oracle(pairs: list[tuple[str, str]], indices: list[int]) -> bool:
    """Solution check by direct string building."""
    if not indices or any(j < 1 or j > len(pairs) for j in indices):
        return False
    alpha = "".join(pairs[j - 1][0] for j in indices)
    beta = "".join(pairs[j - 1][1] for j in indices)
    return alpha == beta


def _lw_oracle(run: tuple, graph: ExecutionGraph, eid: EventId, loc: str, rmw_mode: bool):
    """Latest write on ``loc`` at or before ``eid`` in ``run``, by a backward scan."""
    for e in reversed(run[: run.index(eid) + 1]):
        ev = graph.events[e]
        if ev.loc == loc and (ev.op is Op.WRITE or (rmw_mode and ev.op is Op.RMW)):
            return e
    return None


def summary_oracle(trace, program, run: tuple, eid: EventId, rmw_mode: bool) -> tuple:
    """(states, latest values, foreign reads) at ``eid``, replaying its whole po prefix."""
    g = trace.graph
    ev = g.events[eid]
    lts = program.threads[ev.tid]
    states = {lts.init}
    row = list(g.po[ev.tid])
    for e in row[: row.index(eid) + 1]:
        lab = g.events[e]
        states = {dst for src, l, dst in lts.transitions if src in states and l == lab}
    vals, foreign = [], set()
    for x in sorted(program.locs):
        w = _lw_oracle(run, g, eid, x, rmw_mode)
        vals.append((x, None if w is None else g.events[w].val_w))
        if w is not None:
            span = run[run.index(w) + 1 : run.index(eid) + 1]
            if any(g.events[e].op.reads and g.events[e].loc == x and g.rf[e] != w for e in span):
                foreign.add(x)
    return (frozenset(states), tuple(vals), frozenset(foreign))


def collapsible_oracle(trace, program, first: EventId, second: EventId, rmw_mode: bool = False) -> bool:
    """Whether ``(first, second]`` is collapsible, checked literally against the definition."""
    run = next((r.events for r in trace.runs if first in r.events), ())
    if second not in run or run.index(first) >= run.index(second):
        return False
    if summary_oracle(trace, program, run, first, rmw_mode) != summary_oracle(trace, program, run, second, rmw_mode):
        return False
    g = trace.graph
    span = run[run.index(first) + 1 : run.index(second) + 1]
    if any(w in span and r not in run for r, w in g.rf.items()):
        return False
    after = run[run.index(second) + 1 :]
    if not rmw_mode and any(w in span and r in after and g.events[w].op is Op.RMW for r, w in g.rf.items()):
        return False
    tid = g.events[first].tid
    others = [e for e in g.events if not g.events[e].is_init and g.events[e].tid != tid]
    hb = None
    for x in sorted(program.locs):
        w1 = _lw_oracle(run, g, first, x, rmw_mode)
        w2 = _lw_oracle(run, g, second, x, rmw_mode)
        if w1 == w2:
            continue
        if rmw_mode and g.events[w1].op is not Op.WRITE:
            return False
        hb = hb_pairs_oracle(g) if hb is None else hb
        if any(((w1, e) in hb) != ((w2, e) in hb) for e in others):
            return False
    return True


def collapse_oracle(trace, program, first: EventId, second: EventId, rmw_mode: bool = False):
    """The trace without ``(first, second]``: reads of removed writes rewired, mo transposed.

    The range comes from run offsets and every latest write from a backward
    scan; only the validating constructors are shared with the library.
    """
    g = trace.graph
    run = next(r.events for r in trace.runs if first in r.events)
    removed = set(run[run.index(first) + 1 : run.index(second) + 1])
    _, vals, foreign = summary_oracle(trace, program, run, first, rmw_mode)
    rf2 = {}
    for r, w in g.rf.items():
        if r in removed:
            continue
        if w in removed:
            x = g.events[r].loc
            assert w == _lw_oracle(run, g, second, x, rmw_mode)
            w = _lw_oracle(run, g, first, x, rmw_mode)
            assert g.events[w].val_w == g.events[r].val_r and not (rmw_mode and g.events[w].op is Op.RMW)
        rf2[r] = w
    mo2 = {}
    for x, row in g.mo.items():
        row = list(row)
        if dict(vals).get(x) is not None and x not in foreign:
            w1, w2 = _lw_oracle(run, g, first, x, rmw_mode), _lw_oracle(run, g, second, x, rmw_mode)
            i1, i2 = row.index(w1), row.index(w2)
            row[i1], row[i2] = row[i2], row[i1]
        mo2[x] = [e for e in row if e not in removed]
    events2 = [(e, lab) for e, lab in g.events.items() if e not in removed]
    runs2 = [Run(r.tid, tuple(e for e in r.events if e not in removed)) for r in trace.runs]
    return make_trace(build_graph(events2, rf2, mo2), runs2)


def view_reach(program, contexts: int, rmws: int, cap: int) -> bool:
    """Whether the program reaches its final states in at most ``cap`` events, ``contexts`` runs and ``rmws`` updates.

    The RA view semantics (Kang et al., POPL 2017; Abdulla, Arora, Atig and
    Krishna, PLDI 2019) with messages in mo order.  A thread holds one control
    state and a view, one mo position per location; a location holds its
    messages ``(value, is an update, view)``.  A read takes a same-valued
    message at or above the thread's view and joins the two views.  A write
    goes in anywhere above the view, an update right after the message it reads;
    nothing goes in right before an update.  Inserting shifts every view
    position at or above the new one on that location.  Operational and
    axiomatic RA agree, and a trace's contexts are counted on its interleaving
    order, so this decides what ``bounded_reach`` decides at ``event_cap=cap``.
    Breadth-first by event count, with an exact seen-set.
    """
    tids, locs = sorted(program.threads), sorted(program.locs)
    ix = {x: i for i, x in enumerate(locs)}
    moves: list[dict] = [{} for _ in tids]
    for k, t in enumerate(tids):
        for src, lab, dst in program.threads[t].transitions:
            moves[k].setdefault(src, []).append((lab, dst))
    finals = tuple(program.threads[t].final for t in tids)
    zero = (0,) * len(locs)
    start = (
        tuple(program.threads[t].init for t in tids),
        (zero,) * len(tids),
        tuple(((program.init_vals[x], False, zero),) for x in locs),
        None,  # the active thread
        0,  # runs used
        0,  # updates used
    )

    def shift(w: tuple, i: int, p: int) -> tuple:
        """``w`` after an insertion at mo position ``p`` of location ``i``."""
        return w[:i] + (w[i] + (w[i] >= p),) + w[i + 1 :]

    def steps(lab, view, msgs):
        """Per placement of ``lab`` by a thread with ``view``: its new view and the new messages."""
        i, op = ix[lab.loc], lab.op
        row = msgs[i]
        for j in range(view[i], len(row)) if op.reads else (None,):
            if j is not None and row[j][0] != lab.val_r:
                continue
            joined = view if j is None else tuple(map(max, view, row[j][2]))
            if not op.writes:
                yield joined, msgs
                continue
            for p in (j + 1,) if op is Op.RMW else range(view[i] + 1, len(row) + 1):
                if p < len(row) and row[p][1]:
                    continue  # right before an update
                new = joined[:i] + (p,) + joined[i + 1 :]
                moved = [[(v, u, shift(w, i, p)) for v, u, w in r] for r in msgs]
                moved[i].insert(p, (lab.val_w, op is Op.RMW, new))
                yield new, tuple(map(tuple, moved))

    def successors(ctl, views, msgs, active, runs, used):
        for k, t in enumerate(tids):
            opened = runs + (t != active)  # a new thread opens a run
            if opened > contexts:
                continue
            for lab, dst in moves[k].get(ctl[k], ()):
                spent = used + (lab.op is Op.RMW)
                if spent > rmws:
                    continue
                i = ix[lab.loc]
                for view, after in steps(lab, views[k], msgs):
                    p = view[i]
                    vs = tuple(view if h == k else shift(w, i, p) if lab.op.writes else w for h, w in enumerate(views))
                    yield ctl[:k] + (dst,) + ctl[k + 1 :], vs, after, t, opened, spent

    seen, layer = {start}, [start]
    for _ in range(cap):
        if any(state[0] == finals for state in layer):
            return True
        layer = [s for s in dict.fromkeys(s for state in layer for s in successors(*state)) if s not in seen]
        seen.update(layer)
    return any(state[0] == finals for state in layer)
