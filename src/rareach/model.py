"""Finite-state concurrent programs and their labelled transition systems.

A program is a finite set of threads, each a labelled transition system (LTS)
over read / write / read-modify-write actions on shared locations, together
with the location and value alphabets and an initial value for every
location.  Programs can be written in a small text format::

    # message passing
    locs x y
    vals 0 1
    init x=0 y=0
    thread t1 init q0 final q2
      q0 q1 w x 1
      q1 q2 w y 1
    thread t2 init p0 final p2
      p0 p1 r y 1
      p1 p2 r x 1

``locs`` and ``vals`` declare the alphabets, ``init`` assigns initial values
(locations left out default to ``0`` when ``0`` is a declared value), and each
``thread`` block lists transitions as ``src dst kind loc val(s)`` where kind
is ``r``, ``w`` or ``rmw`` (``rmw`` takes the value read then the value
written).  Tokens are whitespace separated and must not contain ``#``, which
starts a comment.  The thread id ``init`` is reserved for the implicit
initialising writes and cannot be declared.

Thread behaviour is a set of words: every label sequence with a path from the
initial state.  Because transition relations may be nondeterministic, words
are executed over *sets* of states (:meth:`Lts.step`), and a state vector
is considered reached when every thread's word can end in its target state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, UnknownThread

#: Reserved thread id owning the initialising write events.
INIT_TID = "init"


class Op(enum.Enum):
    """Kind of a memory action."""

    READ = "r"
    WRITE = "w"
    RMW = "rmw"

    def __init__(self, value: str) -> None:
        # plain attributes: the search asks these on every branch
        self.reads = value != "w"
        self.writes = value != "r"

    def __repr__(self) -> str:  # keep witness dumps short
        return self.value


@dataclass(frozen=True)
class Label:
    """One action: the op kind, acting thread, location and value(s).

    ``val_r`` is the value read (READ and RMW), ``val_w`` the value written
    (WRITE and RMW); the unused side is ``None``.
    """

    op: Op
    tid: str
    loc: str
    val_r: str | None = None
    val_w: str | None = None

    def __post_init__(self) -> None:
        if self.op.reads and self.val_r is None:
            raise ValueError(f"{self.op} label needs val_r")
        if self.op.writes and self.val_w is None:
            raise ValueError(f"{self.op} label needs val_w")
        if not self.op.reads and self.val_r is not None:
            raise ValueError("write label cannot carry val_r")
        if not self.op.writes and self.val_w is not None:
            raise ValueError("read label cannot carry val_w")

    def __str__(self) -> str:
        vals = [v for v in (self.val_r, self.val_w) if v is not None]
        return f"{self.tid}: {self.op.value} {self.loc} {' '.join(vals)}"


def read(tid: str, loc: str, val: str) -> Label:
    return Label(Op.READ, tid, loc, val_r=val)


def write(tid: str, loc: str, val: str) -> Label:
    return Label(Op.WRITE, tid, loc, val_w=val)


def rmw(tid: str, loc: str, val_r: str, val_w: str) -> Label:
    return Label(Op.RMW, tid, loc, val_r=val_r, val_w=val_w)


def label_key(lab: Label) -> tuple[str, str, str, str]:
    """Deterministic sort key for labels."""
    return (lab.op.value, lab.loc, lab.val_r or "", lab.val_w or "")


@dataclass(frozen=True)
class Lts:
    """One thread's control structure.

    ``transitions`` is a set of ``(src, label, dst)`` triples; there is no
    determinism requirement.  ``final`` is the single accepting control state
    used by reachability queries.
    """

    init: str
    final: str
    states: frozenset[str]
    transitions: frozenset[tuple[str, Label, str]]
    #: memo of :meth:`enabled` / :meth:`step`: state set -> (enabled labels, label -> image)
    _moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.init not in self.states:
            raise ValueError(f"initial state {self.init!r} not in states")
        if self.final not in self.states:
            raise ValueError(f"final state {self.final!r} not in states")
        for src, _, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition endpoint {src!r}->{dst!r} not in states")

    @cached_property
    def index(self) -> dict[str, dict[Label, list[str]]]:
        """``state -> label -> dsts``, built once per instance."""
        rows: dict[str, dict[Label, list[str]]] = {}
        for src, lab, dst in self.transitions:
            rows.setdefault(src, {}).setdefault(lab, []).append(dst)
        return rows

    def _moves_of(self, states: frozenset[str]) -> tuple[tuple[Label, ...], dict[Label, frozenset[str]]]:
        found = self._moves.get(states)
        if found is None:
            images: dict[Label, set[str]] = {}
            for s in states:
                for lab, dsts in self.index.get(s, {}).items():
                    images.setdefault(lab, set()).update(dsts)
            enabled = tuple(sorted(images, key=label_key))
            found = self._moves[states] = (enabled, {lab: frozenset(images[lab]) for lab in enabled})
        return found

    def enabled(self, states: frozenset[str]) -> tuple[Label, ...]:
        """Labels with a transition out of ``states``, sorted by :func:`label_key`."""
        return self._moves_of(states)[0]

    def step(self, states: frozenset[str], label: Label) -> frozenset[str]:
        """Image of a state set under one labelled step."""
        return self._moves_of(states)[1].get(label, frozenset())


@dataclass(frozen=True)
class Program:
    """Threads plus alphabets and initial values."""

    threads: dict[str, Lts]
    locs: frozenset[str]
    vals: frozenset[str]
    init_vals: dict[str, str]

    def __post_init__(self) -> None:
        if INIT_TID in self.threads:
            raise ValueError(f"thread id {INIT_TID!r} is reserved")
        for tid, lts in self.threads.items():
            for _, lab, _ in lts.transitions:
                if lab.tid != tid:
                    raise ValueError(f"label {lab} declared under thread {tid!r}")
                if lab.loc not in self.locs:
                    raise ValueError(f"unknown location {lab.loc!r} in thread {tid!r}")
                for v in (lab.val_r, lab.val_w):
                    if v is not None and v not in self.vals:
                        raise ValueError(f"unknown value {v!r} in thread {tid!r}")
        if set(self.init_vals) != set(self.locs):
            raise ValueError("init_vals must assign exactly the declared locations")
        for loc, v in self.init_vals.items():
            if v not in self.vals:
                raise ValueError(f"initial value {v!r} of {loc!r} not declared")


#: A control state per thread.
StateVector = Mapping[str, str]


def final_vector(program: Program) -> dict[str, str]:
    return {tid: lts.final for tid, lts in program.threads.items()}


def step_states(lts: Lts, states: Iterable[str], label: Label) -> frozenset[str]:
    """Image of a state set under one labelled step; see :meth:`Lts.step`."""
    return lts.step(frozenset(states), label)


def word_reaches(
    program: Program,
    words: Mapping[str, Sequence[Label]],
    target: StateVector,
) -> bool:
    """Whether executing the given per-thread words can end in ``target``.

    Threads absent from ``words`` execute the empty word.  Raises
    :class:`UnknownThread` when ``words`` or ``target`` mention undeclared
    threads or miss a declared one in ``target``.
    """
    for tid in (*words, *target):
        if tid not in program.threads:
            raise UnknownThread(tid)
    for tid, lts in program.threads.items():
        if tid not in target:
            raise UnknownThread(f"target misses thread {tid!r}")
        cur: frozenset[str] = frozenset({lts.init})
        for lab in words.get(tid, ()):
            cur = lts.step(cur, lab)
        if target[tid] not in cur:
            return False
    return True


# --- text format -----------------------------------------------------------

_KINDS = {"r": Op.READ, "w": Op.WRITE, "rmw": Op.RMW}


def _check_atom(tok: str, what: str, lineno: int) -> str:
    if not tok or "#" in tok:
        raise ParseError(f"line {lineno}: bad {what} token {tok!r}")
    return tok


def parse_program(text: str) -> Program:
    """Parse the text format described in the module docstring."""
    locs: list[str] | None = None
    vals: list[str] | None = None
    init_vals: dict[str, str] = {}
    saw_init_line = False
    threads: dict[str, Lts] = {}
    # accumulating state for the current thread block
    cur_tid: str | None = None
    cur_init: str | None = None
    cur_final: str | None = None
    cur_transitions: list[tuple[str, Label, str]] = []

    def close_thread(lineno: int) -> None:
        nonlocal cur_tid
        if cur_tid is None:
            return
        assert cur_init is not None and cur_final is not None
        states = {cur_init, cur_final}
        for src, _, dst in cur_transitions:
            states.add(src)
            states.add(dst)
        threads[cur_tid] = Lts(
            init=cur_init,
            final=cur_final,
            states=frozenset(states),
            transitions=frozenset(cur_transitions),
        )
        cur_tid = None
        cur_transitions.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "locs":
            if locs is not None:
                raise ParseError(f"line {lineno}: duplicate locs line")
            locs = [_check_atom(t, "location", lineno) for t in toks[1:]]
            if not locs or len(set(locs)) != len(locs):
                raise ParseError(f"line {lineno}: locs must list distinct locations")
        elif head == "vals":
            if vals is not None:
                raise ParseError(f"line {lineno}: duplicate vals line")
            vals = [_check_atom(t, "value", lineno) for t in toks[1:]]
            if not vals or len(set(vals)) != len(vals):
                raise ParseError(f"line {lineno}: vals must list distinct values")
        elif head == "init":
            if saw_init_line:
                raise ParseError(f"line {lineno}: duplicate init line")
            saw_init_line = True
            for item in toks[1:]:
                if "=" not in item:
                    raise ParseError(f"line {lineno}: init entries look like loc=val")
                loc, _, v = item.partition("=")
                if loc in init_vals:
                    raise ParseError(f"line {lineno}: duplicate init value for {loc!r}")
                init_vals[_check_atom(loc, "location", lineno)] = _check_atom(v, "value", lineno)
        elif head == "thread":
            close_thread(lineno)
            if len(toks) != 6 or toks[2] != "init" or toks[4] != "final":
                raise ParseError(f"line {lineno}: expected 'thread <id> init <q> final <q>'")
            tid = _check_atom(toks[1], "thread id", lineno)
            if tid == INIT_TID:
                raise ParseError(f"line {lineno}: thread id {INIT_TID!r} is reserved")
            if tid in threads:
                raise ParseError(f"line {lineno}: duplicate thread {tid!r}")
            cur_tid = tid
            cur_init = _check_atom(toks[3], "state", lineno)
            cur_final = _check_atom(toks[5], "state", lineno)
        else:
            if cur_tid is None:
                raise ParseError(f"line {lineno}: transition outside a thread block")
            if len(toks) < 5:
                raise ParseError(f"line {lineno}: expected 'src dst kind loc val(s)'")
            src, dst, kind = toks[0], toks[1], toks[2]
            if kind not in _KINDS:
                raise ParseError(f"line {lineno}: unknown action kind {kind!r}")
            op = _KINDS[kind]
            want = 6 if op is Op.RMW else 5
            if len(toks) != want:
                raise ParseError(f"line {lineno}: {kind} lines take {want - 4} value(s)")
            loc = _check_atom(toks[3], "location", lineno)
            if op is Op.READ:
                lab = read(cur_tid, loc, _check_atom(toks[4], "value", lineno))
            elif op is Op.WRITE:
                lab = write(cur_tid, loc, _check_atom(toks[4], "value", lineno))
            else:
                lab = rmw(
                    cur_tid,
                    loc,
                    _check_atom(toks[4], "value", lineno),
                    _check_atom(toks[5], "value", lineno),
                )
            trans = (_check_atom(src, "state", lineno), lab, _check_atom(dst, "state", lineno))
            if trans in cur_transitions:
                raise ParseError(f"line {lineno}: duplicate transition")
            cur_transitions.append(trans)
    close_thread(0)

    if locs is None:
        raise ParseError("missing locs line")
    if vals is None:
        raise ParseError("missing vals line")
    for loc in init_vals:
        if loc not in locs:
            raise ParseError(f"init assigns undeclared location {loc!r}")
    for loc in locs:
        if loc not in init_vals:
            if "0" not in vals:
                raise ParseError(f"no initial value for {loc!r} and '0' is not a declared value")
            init_vals[loc] = "0"
    try:
        return Program(
            threads=threads,
            locs=frozenset(locs),
            vals=frozenset(vals),
            init_vals=init_vals,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_program(program: Program) -> str:
    """Canonical text for a program; ``parse_program`` inverts this."""
    out: list[str] = []
    out.append("locs " + " ".join(sorted(program.locs)))
    out.append("vals " + " ".join(sorted(program.vals)))
    out.append("init " + " ".join(f"{loc}={program.init_vals[loc]}" for loc in sorted(program.locs)))
    for tid in sorted(program.threads):
        lts = program.threads[tid]
        out.append(f"thread {tid} init {lts.init} final {lts.final}")
        rows = sorted(lts.transitions, key=lambda t: (t[0], t[2], label_key(t[1])))
        for src, lab, dst in rows:
            if lab.op is Op.RMW:
                out.append(f"  {src} {dst} rmw {lab.loc} {lab.val_r} {lab.val_w}")
            elif lab.op is Op.READ:
                out.append(f"  {src} {dst} r {lab.loc} {lab.val_r}")
            else:
                out.append(f"  {src} {dst} w {lab.loc} {lab.val_w}")
    return "\n".join(out) + "\n"


# --- JSON form -------------------------------------------------------------


def program_to_json(program: Program) -> dict:
    """A canonical JSON-serialisable form (keys and rows sorted)."""
    threads = {}
    for tid in sorted(program.threads):
        lts = program.threads[tid]
        rows = []
        for src, lab, dst in sorted(
            lts.transitions, key=lambda t: (t[0], t[2], label_key(t[1]))
        ):
            rows.append([src, dst, lab.op.value, lab.loc, lab.val_r, lab.val_w])
        threads[tid] = {
            "init": lts.init,
            "final": lts.final,
            "states": sorted(lts.states),
            "transitions": rows,
        }
    return {
        "locs": sorted(program.locs),
        "vals": sorted(program.vals),
        "init": {loc: program.init_vals[loc] for loc in sorted(program.locs)},
        "threads": threads,
    }
