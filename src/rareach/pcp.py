"""Compiling Post correspondence problems into reachability questions.

An instance is a list of word pairs over a finite alphabet; a solution is a
nonempty index sequence whose first-component concatenation equals its
second-component concatenation.  :func:`compile_pcp` emits a 12-thread
program whose final state vector is reachable exactly when the instance has
a solution.  Each thread's machine is one config-level step function, which
:func:`compile_pcp` explores into an LTS and :func:`pcp_witness` walks along
the path a given solution picks, so the witness words are never spelled out
a second time.

The construction uses two mirrored "sides" (a and b, one per word family)
and a verifier cluster:

* ``guess_aw`` streams a guessed concatenation letter by letter to ``aw``
  and ``guess_ai`` streams the guessed index sequence to ``ai``; the
  ``cross_a``/``ell_a`` bridge forces both to follow the same indices, and
  each stream ends with a ``bot`` marker.
* ``echo_aw``/``echo_ai`` run a lock-step handshake over ``z_aw``/``z_aw_p``
  (resp. ``z_ai``/``z_ai_p``) so no stream position can be skipped.
* ``check_w`` reads position i of both letter streams with one guessed
  letter — equality of the two concatenations — while ``check_i`` does the
  same for the index streams; ``echo_w``/``echo_i`` handshake with them
  through the streams themselves.

Iteration counters on handshake locations travel modulo 4; the axioms force
reads to pair with equal-index writes anyway (any skip closes a
happens-before cycle or a coherence violation), which is what
:func:`check_no_skipping` and :func:`check_monotonicity` audit on witness
graphs.

Gadget names live only in ``_family`` / ``_SIDES`` / ``_VERIFIERS``: the
machines, the witness walk and every wiring table derive from them, except
``ROLE_MAP``, the literal role vocabulary that ``pcp compile --json`` emits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, NamedTuple, Sequence

from .errors import GadgetMismatch, InvalidSolution, ParseError
from .graph import Event, EventId, ExecutionGraph, build_graph
from .model import Label, Lts, Op, Program, read, write
from .trace import Trace, canonical_trace

BOT = "bot"


class _Family(NamedTuple):
    """The names of one guessed stream and its lock-step handshake."""

    guess: str   # the guesser thread, writing ``st`` and ``z_p``
    echo: str    # its echo thread, writing ``pr`` and ``z``
    st: str      # the stream
    pr: str      # the stream echo
    z: str       # written by the echo, read by the guesser
    z_p: str     # written by the guesser, read by the echo


def _family(side: str, kind: str) -> _Family:
    s = f"{side}{kind}"
    return _Family(f"guess_{s}", f"echo_{s}", s, f"{s}_p", f"z_{s}", f"z_{s}_p")


#: side -> (word family, index family, cross bridge, ell bridge)
_SIDES = {s: (_family(s, "w"), _family(s, "i"), f"cross_{s}", f"ell_{s}") for s in "ab"}

#: kind -> (checker, the checker's echo, side a's family, side b's family)
_VERIFIERS = {k: (f"check_{k}", f"echo_{k}", _family("a", k), _family("b", k)) for k in "wi"}

#: the four stream families in location order: aw, bw, ai, bi
_FAMILIES = [f for _, _, fa, fb in _VERIFIERS.values() for f in (fa, fb)]

LOC_ROLE: dict[str, str] = {
    **{f.st: "stream" for f in _FAMILIES},
    **{f.pr: "stream-echo" for f in _FAMILIES},
    **{x: "handshake" for f in _FAMILIES for x in (f.z, f.z_p)},
    **{x: "bridge" for _, _, cross, ell in _SIDES.values() for x in (cross, ell)},
}

LOCS: tuple[str, ...] = tuple(LOC_ROLE)

BRIDGE_LOCS = frozenset(x for x, role in LOC_ROLE.items() if role == "bridge")

ROLE_MAP: dict[str, str] = {
    "guess_aw": "guesser-word-a",
    "guess_ai": "guesser-index-a",
    "echo_aw": "guesser-word-echo-a",
    "echo_ai": "guesser-index-echo-a",
    "guess_bw": "guesser-word-b",
    "guess_bi": "guesser-index-b",
    "echo_bw": "guesser-word-echo-b",
    "echo_bi": "guesser-index-echo-b",
    "check_w": "verifier-word",
    "echo_w": "verifier-word-echo",
    "check_i": "verifier-index",
    "echo_i": "verifier-index-echo",
}


def _rf_writer() -> dict[tuple[str, str], str]:
    out: dict[tuple[str, str], str] = {}
    for w, i, cross, ell in _SIDES.values():
        # guesser handshakes, and the bridges tying a side's two guessers together
        for f in (w, i):
            out.update({(f.guess, f.z): f.echo, (f.echo, f.z_p): f.guess})
        out.update({(i.guess, cross): w.guess, (w.guess, ell): i.guess})
    for check, echo, fa, fb in _VERIFIERS.values():
        # the verifier cluster's handshake, and the guessed data flowing into it
        for f in (fa, fb):
            out.update({(echo, f.st): check, (check, f.pr): echo, (check, f.st): f.guess, (echo, f.pr): f.echo})
    return out


#: (reader thread, location) -> the unique thread its reads must pair with,
#: index for index.  Readers not listed here do not exist in the gadget.
RF_WRITER: dict[tuple[str, str], str] = _rf_writer()

#: Decreasing read-to-read po pairs the construction allows: the verifier's
#: stream read at index i sits right before its echo reads at index i-1.
DEC_RR: frozenset[tuple[str, str, str]] = frozenset(
    (check, x.st, y.pr) for check, _, fa, fb in _VERIFIERS.values() for x in (fa, fb) for y in (fa, fb)
)

#: Write pairs whose happens-before crossings must skip an index: the echo
#: guesser's stream-echo write i only ever reaches guesser writes j > i+1.
WW_GAP2: tuple[tuple[str, str, str, str], ...] = tuple(
    (f.echo, f.pr, f.guess, f.st) for w, i, _, _ in _SIDES.values() for f in (w, i)
)


def _zv(i: int) -> str:
    return str(i % 4)


def _lv(i: int, aux: str) -> str:
    return f"c{i % 4}:{aux}"


def _sv(tid: str, first: bool, payload: str) -> str:
    return f"{tid}{'!' if first else ''}:{payload}"


# --- instances and solutions ---------------------------------------------------


@dataclass(frozen=True)
class PcpInstance:
    """Word pairs, 1-indexed; letters are the words' characters."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("an instance needs at least one pair")
        for a, b in self.pairs:
            if not a or not b:
                raise ValueError("words must be nonempty")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({ch for a, b in self.pairs for ch in a + b}))

    def words(self, side: str) -> dict[int, str]:
        k = 0 if side == "a" else 1
        return {p: pair[k] for p, pair in enumerate(self.pairs, start=1)}


def parse_pcp(text: str) -> PcpInstance:
    """Parse instance files: one ``pair <alpha> : <beta>`` per line."""
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 4 or toks[0] != "pair" or toks[2] != ":":
            raise ParseError(f"line {lineno}: expected 'pair <word> : <word>'")
        pairs.append((toks[1], toks[3]))
    if not pairs:
        raise ParseError("no pairs in instance")
    try:
        return PcpInstance(tuple(pairs))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def verify_solution(inst: PcpInstance, js: Sequence[int]) -> bool:
    """Direct check: nonempty, indices in range, concatenations equal."""
    if not js or any(j < 1 or j > inst.n for j in js):
        return False
    left = "".join(inst.pairs[j - 1][0] for j in js)
    right = "".join(inst.pairs[j - 1][1] for j in js)
    return left == right


# --- the per-thread machines ------------------------------------------------


#: A thread's machine before BFS: its id, its initial config, and the step
#: function from a config to its ``(kind, loc, val, next config)`` moves.
_Spec = tuple[str, tuple, Callable[[tuple], list[tuple[str, str, str, tuple]]]]


def _label(tid: str, kind: str, loc: str, val: str) -> Label:
    return read(tid, loc, val) if kind == "r" else write(tid, loc, val)


def _build_machine(tid: str, init_cfg: tuple, step) -> Lts:
    """BFS a config-level step function into a dense-named LTS."""
    names: dict[tuple, str] = {init_cfg: "q0"}
    queue: deque[tuple] = deque([init_cfg])
    edges: list[tuple[str, Label, str]] = []
    while queue:
        cfg = queue.popleft()
        for kind, loc, val, dst in step(cfg):
            if dst not in names:
                names[dst] = f"q{len(names)}"
                queue.append(dst)
            edges.append((names[cfg], _label(tid, kind, loc, val), names[dst]))
    fin = ("fin",)
    assert fin in names, f"machine {tid} cannot terminate"
    return Lts(
        init="q0",
        final=names[fin],
        states=frozenset(names.values()),
        transitions=frozenset(edges),
    )


def _walk(tid: str, cfg: tuple, step, choices: Sequence[int]) -> list[Label]:
    """The word of the path from ``cfg`` to ``fin`` that takes the next of
    ``choices`` at every fork (a config with more than one move)."""
    picks = iter(choices)
    word: list[Label] = []
    while cfg != ("fin",):
        moves = step(cfg)
        kind, loc, val, cfg = moves[next(picks)] if len(moves) > 1 else moves[0]
        word.append(_label(tid, kind, loc, val))
    return word


def _guess_w_machine(fam: _Family, cross: str, ell: str, words: dict[int, str]) -> _Spec:
    tid = fam.guess

    def advance(m4: int, i4: int, p: int, pos: int) -> tuple:
        if pos + 1 < len(words[p]):
            return ("emit", m4, i4, False, p, pos + 1)
        return ("link", m4, i4, p)

    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":  # about to open a block: write the bridge counter
            _, m4, i4, first = cfg
            dsts = [("emit", m4, i4, first, p, 0) for p in sorted(words)]
            if not first:
                dsts.append(("bot_emit", m4, i4))
            return [("w", cross, _zv(m4), d) for d in dsts]
        if kind == "emit":
            _, m4, i4, first, p, pos = cfg
            i4n = (i4 + 1) % 4
            return [
                ("w", fam.st, _sv(tid, first, words[p][pos]),
                 ("hand", m4, i4n, first, p, pos))
            ]
        if kind == "hand":
            _, m4, i4n, first, p, pos = cfg
            dst = advance(m4, i4n, p, pos) if first else ("read_z", m4, i4n, p, pos)
            return [("w", fam.z_p, _zv(i4n), dst)]
        if kind == "read_z":
            _, m4, i4n, p, pos = cfg
            return [("r", fam.z, _zv(i4n - 1), advance(m4, i4n, p, pos))]
        if kind == "link":
            _, m4, i4, p = cfg
            return [("r", ell, _lv(m4, str(p)), ("top", (m4 + 1) % 4, i4, False))]
        if kind == "bot_emit":
            _, m4, i4 = cfg
            i4n = (i4 + 1) % 4
            return [("w", fam.st, _sv(tid, False, BOT), ("bot_hand", m4, i4n))]
        if kind == "bot_hand":
            _, m4, i4n = cfg
            return [("w", fam.z_p, _zv(i4n), ("bot_read_z", m4, i4n))]
        if kind == "bot_read_z":
            _, m4, i4n = cfg
            return [("r", fam.z, _zv(i4n - 1), ("bot_link", m4))]
        if kind == "bot_link":
            _, m4 = cfg
            return [("r", ell, _lv(m4, BOT), ("fin",))]
        return []

    return tid, ("top", 1, 0, True), step


def _guess_i_machine(fam: _Family, cross: str, ell: str, n: int) -> _Spec:
    tid = fam.guess

    def nxt(m4: int, aux: str) -> tuple:
        return ("fin",) if aux == BOT else ("top", (m4 + 1) % 4, False)

    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":
            _, m4, first = cfg
            auxes = [str(p) for p in range(1, n + 1)]
            if not first:
                auxes.append(BOT)
            return [
                ("w", fam.st, _sv(tid, first, aux), ("z", m4, first, aux))
                for aux in auxes
            ]
        if kind == "z":
            _, m4, first, aux = cfg
            return [("w", fam.z_p, _zv(m4), ("link", m4, first, aux))]
        if kind == "link":
            _, m4, first, aux = cfg
            dst = nxt(m4, aux) if first else ("read_z", m4, aux)
            return [("w", ell, _lv(m4, aux), dst)]
        if kind == "read_z":
            _, m4, aux = cfg
            return [("r", fam.z, _zv(m4 - 1), ("read_cross", m4, aux))]
        if kind == "read_cross":
            _, m4, aux = cfg
            return [("r", cross, _zv(m4 - 1), nxt(m4, aux))]
        return []

    return tid, ("top", 1, True), step


def _echo_guess_machine(fam: _Family) -> _Spec:
    tid = fam.echo

    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":  # may close after this round: same labels, two tracks
            _, i4, first = cfg
            return [
                ("w", fam.pr, _sv(tid, first, "0"), ("z", i4, closing))
                for closing in (False, True)
            ]
        if kind == "z":
            _, i4, closing = cfg
            return [("w", fam.z, _zv(i4), ("read_z", i4, closing))]
        if kind == "read_z":
            _, i4, closing = cfg
            dst = ("fin",) if closing else ("top", (i4 + 1) % 4, False)
            return [("r", fam.z_p, _zv(i4), dst)]
        return []

    return tid, ("top", 1, True), step


def _check_machine(tid: str, echo: str, fa: _Family, fb: _Family, auxes: Sequence[str]) -> _Spec:
    def nxt(i4: int, aux: str) -> tuple:
        return ("fin",) if aux == BOT else ("top", (i4 + 1) % 4, False)

    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":
            _, i4, first = cfg
            return [("w", fa.st, f"{tid}:{_zv(i4)}", ("wb", i4, first))]
        if kind == "wb":
            _, i4, first = cfg
            return [("w", fb.st, f"{tid}:{_zv(i4)}", ("ra", i4, first))]
        if kind == "ra":
            _, i4, first = cfg
            opts = list(auxes) + ([] if first else [BOT])
            return [
                ("r", fa.st, _sv(fa.guess, first, aux), ("rb", i4, first, aux))
                for aux in opts
            ]
        if kind == "rb":
            _, i4, first, aux = cfg
            dst = nxt(i4, aux) if first else ("pa", i4, aux)
            return [("r", fb.st, _sv(fb.guess, first, aux), dst)]
        if kind == "pa":
            _, i4, aux = cfg
            return [("r", fa.pr, f"{echo}:{_zv(i4 - 1)}", ("pb", i4, aux))]
        if kind == "pb":
            _, i4, aux = cfg
            return [("r", fb.pr, f"{echo}:{_zv(i4 - 1)}", nxt(i4, aux))]
        return []

    return tid, ("top", 1, True), step


def _echo_check_machine(tid: str, chk: str, fa: _Family, fb: _Family) -> _Spec:
    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":
            _, i4, first = cfg
            return [
                ("w", fa.pr, f"{tid}:{_zv(i4)}", ("wb", i4, first, closing))
                for closing in (False, True)
            ]
        if kind == "wb":
            _, i4, first, closing = cfg
            return [("w", fb.pr, f"{tid}:{_zv(i4)}", ("ra", i4, first, closing))]
        if kind == "ra":
            _, i4, first, closing = cfg
            return [("r", fa.st, f"{chk}:{_zv(i4)}", ("rb", i4, first, closing))]
        if kind == "rb":
            _, i4, first, closing = cfg
            return [("r", fb.st, f"{chk}:{_zv(i4)}", ("pa", i4, first, closing))]
        if kind == "pa":
            _, i4, first, closing = cfg
            return [("r", fa.pr, _sv(fa.echo, first, "0"), ("pb", i4, first, closing))]
        if kind == "pb":
            _, i4, first, closing = cfg
            dst = ("fin",) if closing else ("top", (i4 + 1) % 4, False)
            return [("r", fb.pr, _sv(fb.echo, first, "0"), dst)]
        return []

    return tid, ("top", 1, True), step


# --- compilation ----------------------------------------------------------------


@dataclass(frozen=True)
class GadgetProgram:
    """The compiled program plus its role metadata."""

    program: Program
    role_map: dict[str, str]
    loc_map: dict[str, str]
    bridge_locs: frozenset[str]
    instance: PcpInstance


def _machines(inst: PcpInstance) -> list[_Spec]:
    """The specs of all 12 threads, side a, side b, then the verifier cluster."""
    specs: list[_Spec] = []
    for s, (w, i, cross, ell) in _SIDES.items():
        specs += [
            _guess_w_machine(w, cross, ell, inst.words(s)),
            _guess_i_machine(i, cross, ell, inst.n),
            _echo_guess_machine(w),
            _echo_guess_machine(i),
        ]
    auxes = {"w": inst.alphabet, "i": [str(p) for p in range(1, inst.n + 1)]}
    for kind, (check, echo, fa, fb) in _VERIFIERS.items():
        specs += [_check_machine(check, echo, fa, fb, auxes[kind]), _echo_check_machine(echo, check, fa, fb)]
    return specs


def compile_pcp(inst: PcpInstance) -> GadgetProgram:
    """Build the 12-thread gadget for an instance."""
    threads = {tid: _build_machine(tid, init, step) for tid, init, step in _machines(inst)}
    vals = {"0"}
    for lts in threads.values():
        for _, lab, _ in lts.transitions:
            for v in (lab.val_r, lab.val_w):
                if v is not None:
                    vals.add(v)
    program = Program(
        threads=threads,
        locs=frozenset(LOCS),
        vals=frozenset(vals),
        init_vals={x: "0" for x in LOCS},
    )
    return GadgetProgram(program, dict(ROLE_MAP), dict(LOC_ROLE), BRIDGE_LOCS, inst)


# --- the witness for a known solution --------------------------------------------


def pcp_witness(inst: PcpInstance, js: Sequence[int]) -> Trace:
    """The reaching trace induced by a solution.

    Raises :class:`InvalidSolution` when the index sequence is not actually a
    solution.  Every thread's word is walked off the step function its
    compiled machine is built from, so it replays that machine to its final
    state.  At each fork the walk takes the option the solution dictates:
    the next pair index, then the bot marker, for the guessers and
    ``check_i``; the next letter of the concatenation, then bot, for
    ``check_w``; one more round, then close, for the echo threads.  A first
    block with a single option is no fork.  The graph pairs reads-from equal
    indices inside every no-skipping family, and each modification order
    interleaves the writers of a location index by index, the verifier
    cluster's write first.
    """
    if not verify_solution(inst, js):
        raise InvalidSolution(f"{list(js)} does not solve the instance")
    letters = "".join(inst.words("a")[j] for j in js)
    alphabet = inst.alphabet

    def forks(options: list[int], width: int) -> list[int]:
        # a first block with one option is no fork and takes no choice
        return options[1:] if width == 1 else options

    pairs = forks([j - 1 for j in js] + [inst.n], inst.n)
    checks = {"w": forks([alphabet.index(ch) for ch in letters] + [len(alphabet)], len(alphabet)), "i": pairs}
    blocks = {"w": len(letters), "i": len(js)}
    choices: dict[str, list[int]] = {}
    for kind, (check, echo, fa, fb) in _VERIFIERS.items():
        ends = [0] * blocks[kind] + [1]  # one more round per block, then close
        choices.update({check: checks[kind], echo: ends, fa.guess: pairs, fa.echo: ends, fb.guess: pairs, fb.echo: ends})
    words = {tid: _walk(tid, init, step, choices[tid]) for tid, init, step in _machines(inst)}
    return canonical_trace(_assemble(words))


def _assemble(words: dict[str, list[Label]]) -> ExecutionGraph:
    events: list[Event] = [
        Event(f"init.{x}", write("init", x, "0")) for x in LOCS
    ]
    po: dict[str, list[EventId]] = {}
    writes_of: dict[tuple[str, str], list[EventId]] = {}
    reads_of: dict[EventId, tuple[str, str, int]] = {}
    read_counters: dict[tuple[str, str], int] = {}
    for tid in sorted(words):
        row: list[EventId] = []
        for n, lab in enumerate(words[tid], start=1):
            eid = f"{tid}.{n}"
            events.append(Event(eid, lab))
            row.append(eid)
            if lab.op.writes:
                writes_of.setdefault((tid, lab.loc), []).append(eid)
            else:
                c = read_counters.get((tid, lab.loc), 0) + 1
                read_counters[(tid, lab.loc)] = c
                reads_of[eid] = (tid, lab.loc, c)
        po[tid] = row

    rf = {eid: writes_of[(RF_WRITER[(tid, x)], x)][i - 1] for eid, (tid, x, i) in reads_of.items()}

    # at each index the verifier cluster's write comes before the guesser side's
    order = sorted(writes_of, key=lambda key: not ROLE_MAP[key[0]].startswith("verifier"))
    mo: dict[str, list[EventId]] = {}
    for x in LOCS:
        streams = zip_longest(*(writes_of[key] for key in order if key[1] == x))
        mo[x] = [f"init.{x}"] + [e for group in streams for e in group if e is not None]
    return build_graph(events, po, rf, mo)


# --- audits ---------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


def _require_gadget(graph: ExecutionGraph) -> None:
    for t in graph.tids():
        if t not in ROLE_MAP:
            raise GadgetMismatch(f"thread {t!r} carries no gadget role")
    for ev in graph.events.values():
        if ev.loc not in LOC_ROLE:
            raise GadgetMismatch(f"location {ev.loc!r} carries no gadget role")
        if ev.op is Op.RMW:
            raise GadgetMismatch("the gadget has no update events")


def indexed_events(graph: ExecutionGraph) -> dict[EventId, int]:
    """Index every non-init event among its (thread, location, kind) peers."""
    out: dict[EventId, int] = {}
    counters: dict[tuple[str, str, bool], int] = {}
    for t in graph.tids():
        for e in graph.po[t]:
            ev = graph.events[e]
            key = (t, ev.loc, ev.op.reads)
            counters[key] = counters.get(key, 0) + 1
            out[e] = counters[key]
    return out


def check_no_skipping(graph: ExecutionGraph) -> AuditReport:
    """Audit that every read pairs with the equal-index family write."""
    _require_gadget(graph)
    idx = indexed_events(graph)
    violations: list[str] = []
    for r in sorted(graph.rf, key=lambda e: str(e)):
        w = graph.rf[r]
        rd, wr = graph.events[r], graph.events[w]
        family = RF_WRITER.get((rd.tid, rd.loc))
        if family is None:
            violations.append(f"{r}: no family covers reads of {rd.loc} by {rd.tid}")
        elif wr.is_init:
            violations.append(f"{r}: reads the initial value instead of {family}")
        elif wr.tid != family:
            violations.append(f"{r}: reads from {wr.tid} instead of {family}")
        elif idx[w] != idx[r]:
            violations.append(f"{r}: index {idx[r]} reads write index {idx[w]} of {family}")
    return AuditReport(not violations, tuple(violations))


def check_monotonicity(graph: ExecutionGraph) -> AuditReport:
    """Audit the index disciplines of program order, rf, mo and hb."""
    _require_gadget(graph)
    idx = indexed_events(graph)
    violations: list[str] = []

    # (a) program order into a non-bridge write never decreases the index,
    #     and strictly increases it from a read
    # (b) decreasing read-to-read pairs drop exactly 1 and are the verifier's
    for t in graph.tids():
        row = graph.po[t]
        for i, u in enumerate(row):
            ue = graph.events[u]
            for v in row[i + 1 :]:
                ve = graph.events[v]
                if ve.op.writes and ve.loc not in BRIDGE_LOCS:
                    if ue.op.reads and idx[u] >= idx[v]:
                        violations.append(f"po: read {u} idx {idx[u]} before write {v} idx {idx[v]}")
                    elif not ue.op.reads and idx[u] > idx[v]:
                        violations.append(f"po: write {u} idx {idx[u]} before write {v} idx {idx[v]}")
                if (
                    ue.op.reads
                    and ve.op.reads
                    and ue.loc not in BRIDGE_LOCS
                    and ve.loc not in BRIDGE_LOCS
                    and idx[u] > idx[v]
                ):
                    if idx[u] - idx[v] != 1 or (t, ue.loc, ve.loc) not in DEC_RR:
                        violations.append(
                            f"po: reads {u},{v} decrease {idx[u]}->{idx[v]} outside the allowed step"
                        )

    # (c) rf and mo never decrease the index
    for r, w in graph.rf.items():
        if not graph.events[w].is_init and idx[w] > idx[r]:
            violations.append(f"rf: write {w} idx {idx[w]} feeds read {r} idx {idx[r]}")
    for x, row in graph.mo.items():
        real = [e for e in row if not graph.events[e].is_init]
        for a, b in zip(real, real[1:]):
            if idx[a] > idx[b]:
                violations.append(f"mo[{x}]: {a} idx {idx[a]} before {b} idx {idx[b]}")

    # (d) same-location write-to-write hb strictly increases the index
    # (e) same-location write-to-read hb never decreases it
    events = graph.events
    non_init = graph.non_init_events()
    writes = [e for e in non_init if events[e].op.writes]
    reads = [e for e in non_init if events[e].op.reads]
    for w in writes:
        for w2 in writes:
            if w != w2 and events[w].loc == events[w2].loc and graph.hb(w, w2):
                if idx[w] >= idx[w2]:
                    violations.append(f"hb: writes {w},{w2} on {events[w].loc} do not increase")
        for r in reads:
            if events[r].loc == events[w].loc and graph.hb(w, r) and idx[w] > idx[r]:
                violations.append(f"hb: write {w} idx {idx[w]} precedes read {r} idx {idx[r]}")

    # (f) echoed stream writes only reach guesser writes two indices later
    for wt, wl, gt, gl in WW_GAP2:
        for w in writes:
            if events[w].tid != wt or events[w].loc != wl:
                continue
            for w2 in writes:
                if events[w2].tid == gt and events[w2].loc == gl and graph.hb(w, w2):
                    if idx[w] >= idx[w2] - 1:
                        violations.append(
                            f"hb: {wt} write {w} idx {idx[w]} too close to {gt} write {w2} idx {idx[w2]}"
                        )
    return AuditReport(not violations, tuple(violations))
