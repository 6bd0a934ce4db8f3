"""Execution graphs: events, reads-from, modification order.

An execution graph is its events, rf and mo.  ``events`` maps each event id
to the label of the action it performs, in one stored order: the init events
by location, then each sorted thread's events in program order; JSON and DOT
emit events in that order.  Program order (po) is read off that order, one
row per thread with events; reads-from (rf) maps each read to the write it
observes, and modification order (mo) is one total row per location over
that location's writes.  Initialising writes live on the reserved thread id
``init``, which has no po row: they are mutually unordered, happen before
every other event, and sit first in their location's mo row.

Happens-before is the transitive closure of po edges, rf edges and the
init-before-everything edges, cached per graph (graphs are immutable once
built) as successor bitmasks that every layer reads, next to the least event
on an hb cycle.

:func:`build_graph` validates where data enters (JSON, search hits, the PCP
witness assembly) and, like JSON, reads po off the order of its event list.
Producers whose rows are valid by construction, the naive enumerator and
reduction steps, call the :class:`ExecutionGraph` constructor or the trusted
``build_graph(..., like=graph)`` for graphs differing only in mo.  A graph
built ``like=`` another shares the facts that never read mo: its events, rf,
po, event index, hb masks, least cycle event and verdict table
(:mod:`.consistency`).  Whatever reads mo, such as ``mo_pos`` and the
coherence checks, is the new graph's own.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateId,
    GraphError,
    MissingWriter,
    MoNotTotal,
    ParseError,
    UnknownThread,
    ValueMismatch,
)
from .model import Label, Op, Program, StateVector, word_reaches

EventId = int | str


def id_key(eid: EventId) -> tuple[int, int, str]:
    """Total order over event ids; ints sort before strings."""
    if isinstance(eid, bool):  # bool is an int subtype; keep ids honest
        raise GraphError(f"bad event id {eid!r}")
    if isinstance(eid, int):
        return (0, eid, "")
    return (1, 0, eid)


class ExecutionGraph:
    """Immutable event graph; :func:`build_graph` validates at input boundaries.

    ``events`` maps each id to its label in the stored order that JSON and DOT
    emit.  The constructor trusts rows in ``build_graph``'s form: events with
    the init events (by location) first, then each sorted thread's events in
    program order, and tuple mo rows starting with the init write.
    """

    def __init__(
        self,
        events: dict[EventId, Label],
        rf: dict[EventId, EventId],
        mo: dict[str, tuple[EventId, ...]],
    ) -> None:
        self.events = events
        self.rf = rf
        self.mo = mo
        self._verdicts: dict = {}  # check_ra's, shared by every graph built like= this one

    # -- basic lookups ------------------------------------------------------

    @cached_property
    def po(self) -> dict[str, tuple[EventId, ...]]:
        """Each thread's events in their ``events`` order; init events are on no row."""
        rows: dict[str, list[EventId]] = {}
        for e, lab in self.events.items():
            if not lab.is_init:
                rows.setdefault(lab.tid, []).append(e)
        return {t: tuple(row) for t, row in rows.items()}

    def tids(self) -> list[str]:
        """Ids of the threads with events, sorted."""
        return sorted(self.po)

    def init_events(self) -> tuple[EventId, ...]:
        return tuple(e for e, lab in self.events.items() if lab.is_init)

    def non_init_events(self) -> list[EventId]:
        return [e for t in self.tids() for e in self.po[t]]

    @cached_property
    def po_pos(self) -> dict[EventId, int]:
        """Position of each event inside its po row."""
        return {e: i for row in self.po.values() for i, e in enumerate(row)}

    @cached_property
    def mo_pos(self) -> dict[EventId, int]:
        return {e: i for row in self.mo.values() for i, e in enumerate(row)}

    def _with_mo(self, mo: dict[str, tuple[EventId, ...]]) -> ExecutionGraph:
        """This graph with another mo: a copy of :attr:`_like_facts` with ``mo`` set."""
        graph = ExecutionGraph.__new__(ExecutionGraph)
        graph.__dict__.update(self._like_facts)
        graph.mo = mo
        return graph

    @cached_property
    def _like_facts(self) -> dict:
        """The facts that never read mo, shared by every graph built ``like=`` this one."""
        return {n: getattr(self, n) for n in ("events", "rf", "po", "_index", "_succ_masks", "_hb_cycle", "_verdicts")}

    # -- happens-before -----------------------------------------------------

    @cached_property
    def _index(self) -> dict[EventId, int]:
        return {e: i for i, e in enumerate(self.events)}

    @cached_property
    def _succ_masks(self) -> dict[EventId, int]:
        """Each event's hb-successors as a bitmask over ``_index``: the least fixpoint,
        exact on hb cycles, of taking in each po, rf and init edge's target and its
        mask, by passes in reverse ``_index`` order until none changes a mask (one
        more per rf edge pointing backwards on a path)."""
        idx = self._index
        firsts = [row[0] for row in self.po.values()]
        out = {e: list(firsts) if self.events[e].is_init else [] for e in idx}
        for row in self.po.values():
            for a, b in zip(row, row[1:]):
                out[a].append(b)
        for r, w in self.rf.items():
            out[w].append(r)
        edges = [(e, [(1 << idx[b], b) for b in out[e]]) for e in reversed(idx) if out[e]]
        succ = dict.fromkeys(idx, 0)
        changed = True
        while changed:
            changed = False
            for e, targets in edges:
                mask = succ[e]
                for bit, b in targets:
                    mask |= bit | succ[b]
                if mask != succ[e]:
                    succ[e], changed = mask, True
        return succ

    @cached_property
    def _hb_cycle(self) -> EventId | None:
        """The least event by ``id_key`` that happens before itself, or None."""
        succ = self._succ_masks
        return min((e for e, i in self._index.items() if succ[e] >> i & 1), key=id_key, default=None)

    def hb(self, a: EventId, b: EventId) -> bool:
        """Whether ``a`` happens before ``b``."""
        return bool(self._succ_masks[a] & (1 << self._index[b]))

    def __repr__(self) -> str:
        n = len(self.events) - len(self.init_events())
        return f"<ExecutionGraph {n} events, {len(self.tids())} threads>"


def build_graph(
    events: Iterable[tuple[EventId, Label]],
    rf: Mapping[EventId, EventId],
    mo: Mapping[str, Sequence[EventId]],
    *,
    like: ExecutionGraph | None = None,
) -> ExecutionGraph:
    """Validate and assemble an execution graph.

    ``events`` lists each event as an ``(id, label)`` pair; each thread's
    program order is the order of its events in that list.  Threads may
    interleave there, and init events may sit anywhere.  ``rf`` maps read
    ids to write ids, ``mo`` maps each written location to a total row over
    its writes with the init write (if any) first.

    ``like`` is the trusted path for graphs differing only in mo: ``events``
    and ``rf`` must be ``like``'s own rows and ``mo`` in the constructor's
    form; nothing is validated and ``like``'s hb closure is shared.
    """
    if like is not None:
        if events is not like.events or rf is not like.rf:
            raise GraphError("a graph built like another must share its events and rf")
        return like._with_mo(mo)  # type: ignore[arg-type]
    by_id: dict[EventId, Label] = {}
    for eid, lab in events:
        if eid in by_id:
            raise DuplicateId(f"event id {eid!r} used twice")
        by_id[eid] = lab

    init_ids = sorted(
        (e for e, ev in by_id.items() if ev.is_init), key=lambda e: by_id[e].loc
    )
    init_locs = set()
    for e in init_ids:
        ev = by_id[e]
        if ev.op is not Op.WRITE:
            raise GraphError(f"init event {e!r} must be a plain write")
        if ev.loc in init_locs:
            raise GraphError(f"two init writes on location {ev.loc!r}")
        init_locs.add(ev.loc)

    by_tid: dict[str, list[EventId]] = {}
    for e, ev in by_id.items():
        if not ev.is_init:
            by_tid.setdefault(ev.tid, []).append(e)

    for r, w in rf.items():
        if r not in by_id or w not in by_id:
            raise GraphError(f"rf edge {r!r} <- {w!r} mentions unknown events")
        rd, wr = by_id[r], by_id[w]
        if not rd.op.reads:
            raise GraphError(f"rf target {r!r} is not a read")
        if not wr.op.writes:
            raise GraphError(f"rf source {w!r} is not a write")
        if rd.loc != wr.loc:
            raise GraphError(f"rf edge {r!r} <- {w!r} crosses locations")
        if r == w:
            raise GraphError(f"event {r!r} cannot read from itself")
        if rd.val_r != wr.val_w:
            raise ValueMismatch(f"read {r!r} sees {rd.val_r!r} but writer {w!r} wrote {wr.val_w!r}")
    for e, ev in by_id.items():
        if ev.op.reads and e not in rf:
            raise MissingWriter(f"read {e!r} has no reads-from edge")

    writes_by_loc: dict[str, set[EventId]] = {}
    for e, ev in by_id.items():
        if ev.op.writes:
            writes_by_loc.setdefault(ev.loc, set()).add(e)
    mo_rows: dict[str, tuple[EventId, ...]] = {}
    for loc, want in writes_by_loc.items():
        row = tuple(mo.get(loc, ()))
        if set(row) != want or len(row) != len(want):
            raise MoNotTotal(f"mo row for {loc!r} is not a total order over its writes")
        for e in row[1:]:
            if by_id[e].is_init:
                raise MoNotTotal(f"init write on {loc!r} must come first in mo")
        mo_rows[loc] = row
    for loc, row in mo.items():
        if loc not in writes_by_loc and row:
            raise MoNotTotal(f"mo row for unknown/unwritten location {loc!r}")

    ordered = {e: by_id[e] for e in init_ids}
    for tid in sorted(by_tid):
        ordered.update((e, by_id[e]) for e in by_tid[tid])
    return ExecutionGraph(ordered, dict(rf), mo_rows)


# --- queries ----------------------------------------------------------------


def thread_word(graph: ExecutionGraph, tid: str) -> list[Label]:
    """The label word thread ``tid`` executed, in program order."""
    if tid not in graph.po:
        raise UnknownThread(tid)
    return [graph.events[e] for e in graph.po[tid]]


def reaches(graph: ExecutionGraph, program: Program, target: StateVector) -> bool:
    """Whether this graph's per-thread words can end in ``target``."""
    words = {tid: thread_word(graph, tid) for tid in graph.tids()}
    return word_reaches(program, words, target)


# --- JSON and DOT ------------------------------------------------------------


def graph_to_json(graph: ExecutionGraph) -> dict:
    events = [_event_json(e, lab) for e, lab in graph.events.items()]
    rf = sorted(([r, w] for r, w in graph.rf.items()), key=lambda p: id_key(p[0]))
    mo = {loc: list(row) for loc, row in sorted(graph.mo.items())}
    return {"events": events, "rf": rf, "mo": mo}


def _event_json(eid: EventId, lab: Label) -> dict:
    return {
        "id": eid,
        "tid": lab.tid,
        "op": lab.op.value,
        "loc": lab.loc,
        "valR": lab.val_r,
        "valW": lab.val_w,
    }


def json_field(value, *types: type):
    """``value`` if it has one of ``types`` (a bool is no int), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{value!r} is not of type {' or '.join(t.__name__ for t in types)}")
    return value


def graph_from_json(data: dict) -> ExecutionGraph:
    try:
        events = []
        for item in data["events"]:
            lab = Label(
                Op(item["op"]),
                json_field(item["tid"], str),
                json_field(item["loc"], str),
                val_r=json_field(item.get("valR"), str, type(None)),
                val_w=json_field(item.get("valW"), str, type(None)),
            )
            eid = json_field(item["id"], int, str)
            events.append((eid, lab))
        rf = {json_field(r, int, str): json_field(w, int, str) for r, w in data["rf"]}
        mo = {json_field(x, str): [json_field(e, int, str) for e in row] for x, row in data["mo"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
    return build_graph(events, rf, mo)


def _json_data(text: str):
    """Decoded JSON; text that does not decode, or nests too deep to, is a ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc


def load_graph_json(text: str) -> ExecutionGraph:
    return graph_from_json(_json_data(text))


def to_dot(graph: ExecutionGraph) -> str:
    """GraphViz rendering: po solid, rf green, mo orange (transitively reduced)."""
    def q(eid: EventId) -> str:
        return json.dumps(str(eid))

    lines = ["digraph execution {", "  rankdir=TB;", "  node [shape=box, fontname=monospace];"]
    for e, lab in graph.events.items():
        if lab.is_init:
            lines.append(f"  {q(e)} [label={json.dumps(f'{e}: init {lab.loc}={lab.val_w}')}, style=dashed];")
        else:
            lines.append(f"  {q(e)} [label={json.dumps(f'{e}: {lab}')}];")
    for tid in graph.tids():
        row = graph.po[tid]
        for a, b in zip(row, row[1:]):
            lines.append(f"  {q(a)} -> {q(b)};")
    for r in sorted(graph.rf, key=id_key):
        lines.append(f'  {q(graph.rf[r])} -> {q(r)} [color=green, label="rf"];')
    for loc in sorted(graph.mo):
        row = graph.mo[loc]
        for a, b in zip(row, row[1:]):
            lines.append(f'  {q(a)} -> {q(b)} [color=orange, label="mo", constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"
