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
  reads mo, so graphs built ``like=`` one base share the answer;
* ``WRITE_COHERENCE`` walks each mo row once with a mask of the writes
  mo-before the current one; a successor mask meeting it flags a violation,
  and only then are that write's violating pairs listed;
* ``READ_COHERENCE`` tests the read's bit in the successor mask of each
  write mo-after the one it reads;
* ``ATOMICITY`` reads mo positions only.

Checks report the lexicographically least witness (by event id) so results
are stable across runs.  Every axiom is closed under taking subgraphs whose
po/rf/mo are restrictions of the original: removing events never introduces
a violation.
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


#: Fixed checking order; check_ra reports the first axiom that fails.
AXIOM_ORDER = (
    Axiom.IRR_HB,
    Axiom.WRITE_COHERENCE,
    Axiom.READ_COHERENCE,
    Axiom.ATOMICITY,
)


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


def _witness_key(w: tuple[EventId, ...]) -> tuple:
    return tuple(id_key(e) for e in w)


def check_axiom(graph: ExecutionGraph, axiom: Axiom) -> Verdict:
    """Check one axiom, reporting the least witness if it fails."""
    found: list[tuple[EventId, ...]] = []
    succ, idx = graph._succ_masks, graph._index
    if axiom is Axiom.IRR_HB:
        if graph._hb_cycle is not None:
            found = [(graph._hb_cycle,)]
    elif axiom is Axiom.WRITE_COHERENCE:
        for row in graph.mo.values():
            earlier = 0  # the writes mo-before w2
            for i, w2 in enumerate(row):
                after = succ[w2]
                if after & earlier:
                    found += [(w, w2) for w in row[:i] if after >> idx[w] & 1]
                earlier |= 1 << idx[w2]
    elif axiom is Axiom.READ_COHERENCE:
        for r, w in graph.rf.items():
            row = graph.mo[graph.events[w].loc]
            for w2 in row[graph.mo_pos[w] + 1 :]:
                if succ[w2] >> idx[r] & 1:
                    found.append((w, r, w2))
    elif axiom is Axiom.ATOMICITY:
        for r, w in graph.rf.items():
            if graph.events[r].op is not Op.RMW:
                continue
            row = graph.mo[graph.events[r].loc]
            pw, pr = graph.mo_pos[w], graph.mo_pos[r]
            for w2 in row[pw + 1 : pr] if pw < pr else ():
                found.append((w, r, w2))
    if not found:
        return _CONSISTENT
    try:
        least = min(found)  # ids of one type compare as their id_key does
    except TypeError:  # ints mixed with strings
        least = min(found, key=_witness_key)
    return Verdict(False, axiom, least)


def check_ra(graph: ExecutionGraph) -> Verdict:
    """Check all four axioms in order; first failure wins."""
    for axiom in AXIOM_ORDER:
        verdict = check_axiom(graph, axiom)
        if not verdict.consistent:
            return verdict
    return _CONSISTENT
