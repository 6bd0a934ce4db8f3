"""Execution graphs: events, program order, reads-from, modification order.

An execution graph holds one event per executed action.  Program order (po)
is kept as one row of event ids per thread, reads-from (rf) maps each read to
the write it observes, and modification order (mo) is one total row per
location over that location's writes.  Initialising writes live on the
reserved thread id ``init``: they are mutually unordered, happen before every
other event, and sit first in their location's mo row.

Happens-before is the transitive closure of po edges, rf edges and the
init-before-everything edges, cached per graph (graphs are immutable once
built) as successor bitmasks that every layer reads.

:func:`build_graph` validates where data enters (JSON, search hits, the PCP
witness assembly); producers whose rows are valid by construction, the naive
enumerator and reduction steps, call the :class:`ExecutionGraph` constructor
or the trusted ``build_graph(..., like=graph)`` for graphs differing only in mo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateId,
    GraphError,
    MissingWriter,
    MoNotTotal,
    ParseError,
    PoNotTotal,
    UnknownThread,
    ValueMismatch,
)
from .model import INIT_TID, Label, Op, Program, StateVector, word_reaches

EventId = int | str


def id_key(eid: EventId) -> tuple[int, int, str]:
    """Total order over event ids; ints sort before strings."""
    if isinstance(eid, bool):  # bool is an int subtype; keep ids honest
        raise GraphError(f"bad event id {eid!r}")
    if isinstance(eid, int):
        return (0, eid, "")
    return (1, 0, eid)


@dataclass(frozen=True)
class Event:
    """An event id paired with the action it performs."""

    eid: EventId
    label: Label

    @property
    def tid(self) -> str:
        return self.label.tid

    @property
    def op(self) -> Op:
        return self.label.op

    @property
    def loc(self) -> str:
        return self.label.loc

    @property
    def val_r(self) -> str | None:
        return self.label.val_r

    @property
    def val_w(self) -> str | None:
        return self.label.val_w

    @property
    def is_init(self) -> bool:
        return self.label.tid == INIT_TID


class ExecutionGraph:
    """Immutable event graph; :func:`build_graph` validates at input boundaries.

    The constructor trusts rows in ``build_graph``'s form: init events (by
    location) then each sorted thread's po row, tuple po rows with the init
    row last, and tuple mo rows starting with the init write.
    """

    def __init__(
        self,
        events: dict[EventId, Event],
        po: dict[str, tuple[EventId, ...]],
        rf: dict[EventId, EventId],
        mo: dict[str, tuple[EventId, ...]],
    ) -> None:
        self.events = events
        self.po = po
        self.rf = rf
        self.mo = mo

    # -- basic lookups ------------------------------------------------------

    def tids(self) -> list[str]:
        """Real (non-init) thread ids, sorted."""
        return sorted(t for t in self.po if t != INIT_TID)

    def init_events(self) -> tuple[EventId, ...]:
        return self.po.get(INIT_TID, ())

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
        """This graph with another mo, sharing the hb closure (which never reads mo)."""
        graph = ExecutionGraph(self.events, self.po, self.rf, mo)
        graph.__dict__.update(_index=self._index, _succ_masks=self._succ_masks)
        return graph

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
        firsts = [row[0] for t, row in self.po.items() if t != INIT_TID and row]
        out = {e: list(firsts) if self.events[e].is_init else [] for e in idx}
        for t, row in self.po.items():
            for a, b in zip(row, row[1:]) if t != INIT_TID else ():
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

    def hb(self, a: EventId, b: EventId) -> bool:
        """Whether ``a`` happens before ``b``."""
        return bool(self._succ_masks[a] & (1 << self._index[b]))

    # -- structural equality --------------------------------------------------

    @cached_property
    def _canonical(self) -> tuple:
        def ref(eid: EventId) -> tuple:
            ev = self.events[eid]
            if ev.is_init:
                return (INIT_TID, ev.loc)
            return (ev.tid, self.po_pos[eid])

        words = tuple(
            (t, tuple(self.events[e].label for e in self.po[t])) for t in self.tids()
        )
        inits = tuple(sorted((self.events[e].loc, self.events[e].val_w) for e in self.init_events()))
        rf = tuple(sorted((ref(r), ref(w)) for r, w in self.rf.items()))
        mo = tuple(sorted((loc, tuple(ref(e) for e in row)) for loc, row in self.mo.items()))
        return (words, inits, rf, mo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionGraph):
            return NotImplemented
        return self._canonical == other._canonical

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        n = len(self.events) - len(self.init_events())
        return f"<ExecutionGraph {n} events, {len(self.tids())} threads>"


def build_graph(
    events: Iterable[Event],
    po: Mapping[str, Sequence[EventId]],
    rf: Mapping[EventId, EventId],
    mo: Mapping[str, Sequence[EventId]],
    *,
    like: ExecutionGraph | None = None,
) -> ExecutionGraph:
    """Validate and assemble an execution graph.

    ``po`` maps each thread to its event ids in program order; the row for the
    reserved init thread may be omitted (it is derived from the init events).
    ``rf`` maps read ids to write ids, ``mo`` maps each written location to a
    total row over its writes with the init write (if any) first.

    ``like`` is the trusted path for graphs differing only in mo: ``events``,
    ``po`` and ``rf`` must be ``like``'s own rows and ``mo`` in the
    constructor's form; nothing is validated and ``like``'s hb closure is shared.
    """
    if like is not None:
        if events is not like.events or po is not like.po or rf is not like.rf:
            raise GraphError("a graph built like another must share its events, po and rf")
        return like._with_mo(mo)  # type: ignore[arg-type]
    by_id: dict[EventId, Event] = {}
    for ev in events:
        if ev.eid in by_id:
            raise DuplicateId(f"event id {ev.eid!r} used twice")
        by_id[ev.eid] = ev

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

    po_rows: dict[str, tuple[EventId, ...]] = {}
    for tid, row in po.items():
        if tid == INIT_TID:
            if sorted(row, key=id_key) != sorted(init_ids, key=id_key):
                raise PoNotTotal(f"init row does not list the init events")
            continue
        if tid not in by_tid:
            if row:
                raise PoNotTotal(f"po row for {tid!r} lists unknown events")
            po_rows[tid] = ()
            continue
        if sorted(row, key=id_key) != sorted(by_tid[tid], key=id_key):
            raise PoNotTotal(f"po row for {tid!r} is not a permutation of its events")
        po_rows[tid] = tuple(row)
    for tid in by_tid:
        if tid not in po_rows:
            raise PoNotTotal(f"missing po row for thread {tid!r}")
    if init_ids:
        po_rows[INIT_TID] = tuple(init_ids)

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

    ordered: dict[EventId, Event] = {}
    for e in init_ids:
        ordered[e] = by_id[e]
    for tid in sorted(po_rows):
        if tid == INIT_TID:
            continue
        for e in po_rows[tid]:
            ordered[e] = by_id[e]
    return ExecutionGraph(ordered, po_rows, dict(rf), mo_rows)


# --- queries ----------------------------------------------------------------


def thread_word(graph: ExecutionGraph, tid: str) -> list[Label]:
    """The label word thread ``tid`` executed, in program order."""
    if tid == INIT_TID:
        raise UnknownThread(f"{INIT_TID!r} has no word")
    if tid not in graph.po:
        raise UnknownThread(tid)
    return [graph.events[e].label for e in graph.po[tid]]


def reaches(graph: ExecutionGraph, program: Program, target: StateVector) -> bool:
    """Whether this graph's per-thread words can end in ``target``."""
    for tid in graph.tids():
        if tid not in program.threads:
            raise UnknownThread(f"graph thread {tid!r} not in program")
    words = {tid: thread_word(graph, tid) for tid in graph.tids()}
    return word_reaches(program, words, target)


# --- JSON and DOT ------------------------------------------------------------


def graph_to_json(graph: ExecutionGraph) -> dict:
    events = []
    for e in graph.init_events():
        events.append(_event_json(graph.events[e]))
    for tid in graph.tids():
        for e in graph.po[tid]:
            events.append(_event_json(graph.events[e]))
    rf = sorted(([r, w] for r, w in graph.rf.items()), key=lambda p: id_key(p[0]))
    mo = {loc: list(row) for loc, row in sorted(graph.mo.items())}
    return {"events": events, "rf": rf, "mo": mo}


def _event_json(ev: Event) -> dict:
    return {
        "id": ev.eid,
        "tid": ev.tid,
        "op": ev.op.value,
        "loc": ev.loc,
        "valR": ev.val_r,
        "valW": ev.val_w,
    }


def json_field(value, *types: type):
    """``value`` if it has one of ``types`` (a bool is no int), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{value!r} is not of type {' or '.join(t.__name__ for t in types)}")
    return value


def graph_from_json(data: dict) -> ExecutionGraph:
    try:
        events = []
        po: dict[str, list[EventId]] = {}
        for item in data["events"]:
            lab = Label(
                Op(item["op"]),
                json_field(item["tid"], str),
                json_field(item["loc"], str),
                val_r=json_field(item.get("valR"), str, type(None)),
                val_w=json_field(item.get("valW"), str, type(None)),
            )
            ev = Event(json_field(item["id"], int, str), lab)
            events.append(ev)
            po.setdefault(ev.tid, []).append(ev.eid)
        rf = {json_field(r, int, str): json_field(w, int, str) for r, w in data["rf"]}
        mo = {json_field(x, str): [json_field(e, int, str) for e in row] for x, row in data["mo"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
    return build_graph(events, po, rf, mo)


def _json_data(text: str):
    """Decoded JSON; text that does not decode, or nests too deep to, is a ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc


def load_graph_json(text: str) -> ExecutionGraph:
    return graph_from_json(_json_data(text))


def dump_graph_json(graph: ExecutionGraph) -> str:
    return json.dumps(graph_to_json(graph), indent=2, sort_keys=True) + "\n"


def to_dot(graph: ExecutionGraph) -> str:
    """GraphViz rendering: po solid, rf green, mo orange (transitively reduced)."""
    def q(eid: EventId) -> str:
        return json.dumps(str(eid))

    lines = ["digraph execution {", "  rankdir=TB;", "  node [shape=box, fontname=monospace];"]
    for e in graph.init_events():
        ev = graph.events[e]
        lines.append(f"  {q(e)} [label={json.dumps(f'{e}: init {ev.loc}={ev.val_w}')}, style=dashed];")
    for tid in graph.tids():
        for e in graph.po[tid]:
            ev = graph.events[e]
            lines.append(f"  {q(e)} [label={json.dumps(f'{e}: {ev.label}')}];")
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
