"""Independent reference implementations used to cross-check the library.

Every function here recomputes a quantity through a different route than the
package does: closures by per-source BFS instead of bitset mask passes, axioms
by explicit relational composition over materialized pair sets, the length
bound by a memoized recursive functional instead of the iterative table,
collapsibility pair by pair from the definitions instead of one sweep per run,
a collapse from backward latest-write scans instead of the sweep's records.
Keeping both routes alive is the point — tests compare them, they must not
share code.
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
        lab = g.events[e].label
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
    events2 = [ev for e, ev in g.events.items() if e not in removed]
    po2 = {t: [e for e in row if e not in removed] for t, row in g.po.items() if t != INIT_TID}
    runs2 = [Run(r.tid, tuple(e for e in r.events if e not in removed)) for r in trace.runs]
    return make_trace(build_graph(events2, po2, rf2, mo2), runs2)
