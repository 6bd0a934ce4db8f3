"""Axiomatic consistency for the release/acquire fragment.

A graph is consistent when four irreflexivity axioms hold:

* ``IRR_HB``            — happens-before is acyclic;
* ``WRITE_COHERENCE``   — mo;hb is irreflexive: no write is mo-before a write
                          that happens before it;
* ``READ_COHERENCE``    — mo;hb;rf⁻¹ is irreflexive: no read observes a write
                          that mo-precedes some same-location write happening
                          before the read;
* ``ATOMICITY``         — mo;mo;rf⁻¹ is irreflexive: an update reads from its
                          immediate mo-predecessor.

The axioms read happens-before from the graph's successor bitmasks
(``_succ_masks``, bit positions from ``_index``), never pair by pair:

* ``IRR_HB`` reads the graph's least event on an hb cycle, which never
  reads mo, so :func:`check_ra` answers it once per closure (below);
* ``WRITE_COHERENCE`` walks each mo row once with a mask of the writes
  mo-before the current one; a successor mask meeting it flags a violation,
  and only then are that write's violating pairs listed;
* ``READ_COHERENCE`` tests the read's bit in the successor mask of each
  write mo-after the one it reads;
* ``ATOMICITY`` reads mo positions only.

Checks report the lexicographically least witness (by event id) so results
are stable across runs; one function per axiom finds its least witness, for
both :func:`check_axiom` and :func:`check_ra`.  Every axiom is closed under
taking subgraphs whose po/rf/mo are restrictions of the original: removing
events never introduces a violation.  Verdicts are frozen, so graphs sharing an
hb closure (built ``like=`` one base) share a table of them, ``_verdicts``: the
closure's ``IRR_HB`` verdict under ``None``, and one verdict per ``(axiom,
least witness)`` met.  Compare verdicts by value, not identity.  The table
pays for itself: without it each failing candidate allocates its own frozen
``Verdict``, and the naive-enum bench's ``verdict_s`` went 0.234–0.239 s to
0.273–0.277 s, about 16% slower (three alternating pairs, Python 3.11.7,
2-CPU x86-64 host, October 2026).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import EventId, ExecutionGraph, id_key
from .model import Op


class Axiom(enum.Enum):
    IRR_HB = "irr-hb"
    WRITE_COHERENCE = "write-coherence"
    READ_COHERENCE = "read-coherence"
    ATOMICITY = "atomicity"

    __hash__ = object.__hash__  # members are singletons; Enum's own hashes the name in Python


#: Fixed checking order, the declaration order; check_ra reports the first axiom that fails.
AXIOM_ORDER = tuple(Axiom)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consistency check.

    ``witness`` pins the violation: ``(e,)`` for an hb cycle through ``e``,
    ``(w, w')`` for write coherence (w mo-before w', w' happens before w),
    ``(w, r, w')`` for read coherence (r reads w although the mo-later w'
    happens before r) and ``(w, u, w')`` for atomicity (update u reads w with
    w' mo-between).
    """

    consistent: bool
    axiom: Axiom | None = None
    witness: tuple[EventId, ...] | None = None

    def to_json(self) -> dict:
        if self.consistent:
            return {"status": "consistent"}
        assert self.axiom is not None and self.witness is not None
        return {
            "status": "violation",
            "axiom": self.axiom.value,
            "witness": list(self.witness),
        }


_CONSISTENT = Verdict(True)


def _least(found: list[tuple[EventId, ...]] | None) -> tuple[EventId, ...] | None:
    if not found:
        return None
    try:
        return min(found)  # ids of one type compare as their id_key does
    except TypeError:  # ints mixed with strings
        return min(found, key=lambda w: tuple(map(id_key, w)))


def _irr_hb(graph: ExecutionGraph) -> tuple[EventId, ...] | None:
    return None if graph._hb_cycle is None else (graph._hb_cycle,)


def _write_coherence(graph: ExecutionGraph) -> tuple[EventId, ...] | None:
    succ, idx = graph._succ_masks, graph._index
    found = None
    for row in graph.mo.values():
        earlier = 0  # the writes mo-before w2
        for i, w2 in enumerate(row):
            after = succ[w2]
            if after & earlier:
                found = found or []
                found += [(w, w2) for w in row[:i] if after >> idx[w] & 1]
            earlier |= 1 << idx[w2]
    return _least(found)


def _read_coherence(graph: ExecutionGraph) -> tuple[EventId, ...] | None:
    succ, idx, mo_pos = graph._succ_masks, graph._index, graph.mo_pos
    found = [
        (w, r, w2)
        for r, w in graph.rf.items()
        for w2 in graph.mo[graph.events[w].loc][mo_pos[w] + 1 :]
        if succ[w2] >> idx[r] & 1
    ]
    return _least(found)


def _atomicity(graph: ExecutionGraph) -> tuple[EventId, ...] | None:
    found = []
    for r, w in graph.rf.items():
        if graph.events[r].op is Op.RMW:
            pw, pr = graph.mo_pos[w], graph.mo_pos[r]
            found += [(w, r, w2) for w2 in graph.mo[graph.events[r].loc][pw + 1 : pr]]
    return _least(found)


_LEAST = dict(zip(AXIOM_ORDER, (_irr_hb, _write_coherence, _read_coherence, _atomicity)))
_MO_CHECKS = tuple(_LEAST.items())[1:]  # the axioms that read mo


def _verdict(graph: ExecutionGraph, axiom: Axiom, witness: tuple[EventId, ...]) -> Verdict:
    """The violation of ``axiom`` at ``witness``, from the table shared by ``graph``'s closure."""
    key = (axiom, witness)
    return graph._verdicts.get(key) or graph._verdicts.setdefault(key, Verdict(False, axiom, witness))


def check_axiom(graph: ExecutionGraph, axiom: Axiom) -> Verdict:
    """Check one axiom, reporting the least witness if it fails."""
    witness = _LEAST[axiom](graph)
    return _CONSISTENT if witness is None else _verdict(graph, axiom, witness)


def check_ra(graph: ExecutionGraph) -> Verdict:
    """Check all four axioms in order; first failure wins.  ``IRR_HB`` is one
    lookup in the closure's verdict table after the closure's first check."""
    verdict = graph._verdicts.get(None) or graph._verdicts.setdefault(None, check_axiom(graph, Axiom.IRR_HB))
    if verdict.consistent:
        for axiom, least in _MO_CHECKS:
            witness = least(graph)
            if witness is not None:
                return _verdict(graph, axiom, witness)
    return verdict
