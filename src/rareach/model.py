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
initialising writes and cannot be declared, and no control state may be
named ``locs``, ``vals``, ``init`` or ``thread``, which would read as a
declaration line.  :class:`Program` refuses every name the format cannot
write (and a location holding ``=``), so :func:`serialize_program` output
always parses back to the same program.

Thread behaviour is a set of words: every label sequence with a path from the
initial state.  Because transition relations may be nondeterministic, words
are executed over *sets* of states, and a state vector is considered reached
when every thread's word can end in its target state.

Every stepper steps masks of one indexed :class:`Form` per thread
(``Program.forms``, built on first use) and hashes no :class:`Label`.  Labels
remain only at the boundaries: witness and graph events, program text and
JSON, and error messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, reduce
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
            raise ValueError(f"{self.op.value} label needs val_r")
        if self.op.writes and self.val_w is None:
            raise ValueError(f"{self.op.value} label needs val_w")
        if not self.op.reads and self.val_r is not None:
            raise ValueError(f"{self.op.value} label cannot carry val_r")
        if not self.op.writes and self.val_w is not None:
            raise ValueError(f"{self.op.value} label cannot carry val_w")

    @property
    def is_init(self) -> bool:
        """Whether this is an initialising write (on the reserved init thread)."""
        return self.tid == INIT_TID

    def __str__(self) -> str:
        return f"{self.tid}: {self.op.value} {self.loc} {_vals_text(self)}"


def _vals_text(lab: Label) -> str:
    """The value read, then the value written, as the text format writes them."""
    return lab.val_w if lab.val_r is None else lab.val_r if lab.val_w is None else f"{lab.val_r} {lab.val_w}"


def read(tid: str, loc: str, val: str) -> Label:
    return Label(Op.READ, tid, loc, val_r=val)


def write(tid: str, loc: str, val: str) -> Label:
    return Label(Op.WRITE, tid, loc, val_w=val)


def rmw(tid: str, loc: str, val_r: str, val_w: str) -> Label:
    return Label(Op.RMW, tid, loc, val_r=val_r, val_w=val_w)


def label_key(lab: Label) -> tuple[str, str, str, str]:
    """Deterministic sort key for labels."""
    return (lab.op.value, lab.loc, lab.val_r or "", lab.val_w or "")


def _row_key(row: tuple[str, Label, str]) -> tuple[str, str, tuple[str, str, str, str]]:
    """Row order of the text format: source, target, then :func:`label_key`."""
    src, lab, dst = row
    return (src, dst, label_key(lab))


@dataclass(frozen=True)
class Lts:
    """One thread's control structure.

    ``transitions`` is a set of ``(src, label, dst)`` triples; there is no
    determinism requirement.  ``final`` is the single accepting control state
    used by reachability queries.  The control states are read off these:
    ``init``, ``final`` and every transition endpoint, so an LTS has no
    isolated states (the text format cannot name one either).
    """

    init: str
    final: str
    transitions: frozenset[tuple[str, Label, str]]

    @cached_property
    def states(self) -> frozenset[str]:
        """``init``, ``final`` and every transition endpoint."""
        rows = self.transitions
        return frozenset({self.init, self.final}.union([src for src, _, _ in rows], [dst for _, _, dst in rows]))


class Form(dict):
    """One thread's indexed form: ``form[mask]`` is the moves out of the control subset ``mask``.

    The states are numbered in sorted-name order and a subset is the int mask
    of their bits (``bit``; ``init`` and ``final`` are those states' masks).
    A move is ``(label, index of its location in ix, image mask)``, a mask's
    moves in :func:`label_key` order.  One pass over the transitions gathers
    per state each label's image under its key; the table fills on demand.
    """

    def __init__(self, lts: Lts, ix: Mapping[str, int]) -> None:
        super().__init__()
        self.bit = {q: 1 << k for k, q in enumerate(sorted(lts.states))}
        self.init, self.final = self.bit[lts.init], self.bit[lts.final]
        self._labels: dict[tuple, tuple[tuple, Label, int]] = {}  # label_key -> that key, label, location index
        self._out: dict[int, dict[tuple, int]] = {}  # per state bit: label_key -> image mask
        for src, lab, dst in lts.transitions:
            key = self._labels.setdefault(k := label_key(lab), (k, lab, ix[lab.loc]))[0]  # one key object per label
            row, bit = self._out.setdefault(self.bit[src], {}), self.bit[dst]
            row[key] = row[key] | bit if key in row else bit

    def __missing__(self, mask: int) -> tuple[tuple[Label, int, int], ...]:
        images: dict[tuple, int] = {}
        rest = mask
        while rest:
            rest ^= (b := rest & -rest)  # b: the lowest state left
            for key, image in self._out.get(b, {}).items():
                images[key] = images[key] | image if key in images else image
        found = self[mask] = tuple([(*self._labels[key][1:], images[key]) for key in sorted(images)])
        return found

    def step(self, mask: int, label: Label) -> int:
        """Image of ``mask`` under ``label``; 0 when no transition takes it."""
        return next((image for lab, _, image in self[mask] if lab == label), 0)

    def names(self, mask: int) -> frozenset[str]:
        """The states of ``mask``."""
        return frozenset([q for q, b in self.bit.items() if mask & b])


#: the first tokens of the text format's declaration lines, which a transition line cannot start with
_KEYWORDS = frozenset({"locs", "vals", "init", "thread"})


def _token(name: str) -> bool:
    """Whether the text format writes ``name`` as one token: it is not empty and holds no whitespace or ``#``."""
    return name.split() == [name] and "#" not in name


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
            if self._misfit(tid, lts.transitions):
                # a set's order follows the hash seed: name the first offender in row order
                raise ValueError(self._misfit(tid, sorted(lts.transitions, key=_row_key)))
        if set(self.init_vals) != set(self.locs):
            raise ValueError("init_vals must assign exactly the declared locations")
        for loc, v in self.init_vals.items():
            if v not in self.vals:
                raise ValueError(f"initial value {v!r} of {loc!r} not declared")
        # every name must survive serialize_program and parse_program; a program holds thousands of names,
        # so one scan of them all joined comes first
        states = [q for lts in self.threads.values() for q in lts.states]
        names = [*self.threads, *self.locs, *self.vals, *states]
        text = "".join(names)
        if not (
            self.locs
            and self.vals
            and "" not in names
            and "#" not in text
            and text.split() == [text]
            and "=" not in "".join(self.locs)
            and _KEYWORDS.isdisjoint(states)
        ):
            raise ValueError(self._unwritable())

    @cached_property
    def forms(self) -> dict[str, Form]:
        """Per thread its :class:`Form`, locations indexed in sorted order; built on first use."""
        ix = {x: i for i, x in enumerate(sorted(self.locs))}
        return {tid: Form(lts, ix) for tid, lts in self.threads.items()}

    def _unwritable(self) -> str | None:
        """Why ``serialize_program`` cannot write some name back, naming the first in sorted order, or ``None``."""
        if not self.locs or not self.vals:
            return "locs and vals must each declare at least one name"
        for what, names in (("thread id", self.threads), ("location", self.locs), ("value", self.vals)):
            for x in sorted(names):
                if not _token(x) or (what == "location" and "=" in x):
                    return f"{what} {x!r} cannot be written in the text format"
        for tid, lts in self.threads.items():
            for q in sorted(lts.states):
                if not _token(q) or q in _KEYWORDS:
                    return f"control state {q!r} of thread {tid!r} cannot be written in the text format"
        return None

    def _misfit(self, tid: str, rows: Iterable[tuple[str, Label, str]]) -> str | None:
        """Why the first label in ``rows`` that misfits thread ``tid`` or the alphabets is refused, or ``None``."""
        for _, lab, _ in rows:
            if lab.tid != tid:
                return f"label {lab} declared under thread {tid!r}"
            if lab.loc not in self.locs:
                return f"unknown location {lab.loc!r} in thread {tid!r}"
            for v in (lab.val_r, lab.val_w):
                if v is not None and v not in self.vals:
                    return f"unknown value {v!r} in thread {tid!r}"
        return None


#: A control state per thread.
StateVector = Mapping[str, str]


def final_vector(program: Program) -> dict[str, str]:
    return {tid: lts.final for tid, lts in program.threads.items()}


def step_states(lts: Lts, states: Iterable[str], label: Label) -> frozenset[str]:
    """Image of a state set under one labelled step, through a throwaway :class:`Form`."""
    form = Form(lts, {lab.loc: 0 for _, lab, _ in lts.transitions})
    return form.names(form.step(sum([form.bit.get(q, 0) for q in set(states)]), label))


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
    for tid, form in program.forms.items():
        if tid not in target:
            raise UnknownThread(f"target misses thread {tid!r}")
        if not reduce(form.step, words.get(tid, ()), form.init) & form.bit.get(target[tid], 0):
            return False
    return True


# --- text format -----------------------------------------------------------

_KINDS = {op.value: op for op in Op}


def _check_atom(tok: str, what: str, lineno: int) -> str:
    if not tok:
        raise ParseError(f"line {lineno}: bad {what} token {tok!r}")
    return tok


def parse_program(text: str) -> Program:
    """Parse the text format described in the module docstring."""
    decl: dict[str, list[str]] = {}  # arguments of the locs, vals and init lines seen so far
    init_vals: dict[str, str] = {}
    threads: dict[str, tuple[str, str, set[tuple[str, Label, str]]]] = {}  # tid -> init, final, transitions
    rows = None  # the transitions of the last thread line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head, *args = toks
        if head in ("locs", "vals", "init"):
            if head in decl:
                raise ParseError(f"line {lineno}: duplicate {head} line")
            decl[head] = args
            if head == "init":
                for item in args:
                    loc, eq, v = item.partition("=")
                    if not eq:
                        raise ParseError(f"line {lineno}: init entries look like loc=val")
                    if loc in init_vals:
                        raise ParseError(f"line {lineno}: duplicate init value for {loc!r}")
                    init_vals[_check_atom(loc, "location", lineno)] = _check_atom(v, "value", lineno)
            elif not args or len(set(args)) != len(args):
                what = "locations" if head == "locs" else "values"
                raise ParseError(f"line {lineno}: {head} must list distinct {what}")
        elif head == "thread":
            if len(args) != 5 or args[1] != "init" or args[3] != "final":
                raise ParseError(f"line {lineno}: expected 'thread <id> init <q> final <q>'")
            tid = args[0]
            if tid == INIT_TID:
                raise ParseError(f"line {lineno}: thread id {INIT_TID!r} is reserved")
            if tid in threads:
                raise ParseError(f"line {lineno}: duplicate thread {tid!r}")
            rows = set()
            threads[tid] = (args[2], args[4], rows)
        elif rows is None:
            raise ParseError(f"line {lineno}: transition outside a thread block")
        elif len(toks) < 5:
            raise ParseError(f"line {lineno}: expected 'src dst kind loc val(s)'")
        else:
            src, dst, kind, loc, *vs = toks
            op = _KINDS.get(kind)
            if op is None:
                raise ParseError(f"line {lineno}: unknown action kind {kind!r}")
            if len(vs) != (want := op.reads + op.writes):
                raise ParseError(f"line {lineno}: {kind} lines take {want} value(s)")
            row = (src, Label(op, tid, loc, vs[0] if op.reads else None, vs[-1] if op.writes else None), dst)
            if row in rows:
                raise ParseError(f"line {lineno}: duplicate transition")
            rows.add(row)

    for head in ("locs", "vals"):
        if head not in decl:
            raise ParseError(f"missing {head} line")
    locs, vals = decl["locs"], decl["vals"]
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
            threads={tid: Lts(init, final, frozenset(rows)) for tid, (init, final, rows) in threads.items()},
            locs=frozenset(locs),
            vals=frozenset(vals),
            init_vals=init_vals,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_program(program: Program) -> str:
    """Canonical text for a program; ``parse_program`` inverts this."""
    out = [
        "locs " + " ".join(sorted(program.locs)),
        "vals " + " ".join(sorted(program.vals)),
        "init " + " ".join(f"{loc}={program.init_vals[loc]}" for loc in sorted(program.locs)),
    ]
    for tid, lts in sorted(program.threads.items()):
        out.append(f"thread {tid} init {lts.init} final {lts.final}")
        for src, lab, dst in sorted(lts.transitions, key=_row_key):
            out.append(f"  {src} {dst} {lab.op.value} {lab.loc} {_vals_text(lab)}")
    return "\n".join(out) + "\n"


# --- JSON form -------------------------------------------------------------


def program_to_json(program: Program) -> dict:
    """A canonical JSON-serialisable form (keys and rows sorted)."""
    threads = {}
    for tid, lts in sorted(program.threads.items()):
        threads[tid] = {
            "init": lts.init,
            "final": lts.final,
            "states": sorted(lts.states),
            "transitions": [
                [src, dst, lab.op.value, lab.loc, lab.val_r, lab.val_w]
                for src, lab, dst in sorted(lts.transitions, key=_row_key)
            ],
        }
    return {
        "locs": sorted(program.locs),
        "vals": sorted(program.vals),
        "init": {loc: program.init_vals[loc] for loc in sorted(program.locs)},
        "threads": threads,
    }
