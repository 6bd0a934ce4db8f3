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

LOCS: tuple[str, ...] = (
    "aw", "bw", "ai", "bi",
    "aw_p", "bw_p", "ai_p", "bi_p",
    "z_aw", "z_aw_p", "z_bw", "z_bw_p",
    "z_ai", "z_ai_p", "z_bi", "z_bi_p",
    "cross_a", "ell_a", "cross_b", "ell_b",
)

BRIDGE_LOCS = frozenset({"cross_a", "ell_a", "cross_b", "ell_b"})

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

LOC_ROLE: dict[str, str] = {
    **{x: "stream" for x in ("aw", "bw", "ai", "bi")},
    **{x: "stream-echo" for x in ("aw_p", "bw_p", "ai_p", "bi_p")},
    **{x: "handshake" for x in LOCS if x.startswith("z_")},
    **{x: "bridge" for x in BRIDGE_LOCS},
}

#: (reader thread, location) -> the unique thread its reads must pair with,
#: index for index.  Readers not listed here do not exist in the gadget.
RF_WRITER: dict[tuple[str, str], str] = {
    # guesser handshakes and bridges, side a
    ("guess_aw", "z_aw"): "echo_aw",
    ("echo_aw", "z_aw_p"): "guess_aw",
    ("guess_ai", "z_ai"): "echo_ai",
    ("echo_ai", "z_ai_p"): "guess_ai",
    ("guess_ai", "cross_a"): "guess_aw",
    ("guess_aw", "ell_a"): "guess_ai",
    # side b
    ("guess_bw", "z_bw"): "echo_bw",
    ("echo_bw", "z_bw_p"): "guess_bw",
    ("guess_bi", "z_bi"): "echo_bi",
    ("echo_bi", "z_bi_p"): "guess_bi",
    ("guess_bi", "cross_b"): "guess_bw",
    ("guess_bw", "ell_b"): "guess_bi",
    # verifier cluster handshake
    ("echo_w", "aw"): "check_w",
    ("echo_w", "bw"): "check_w",
    ("check_w", "aw_p"): "echo_w",
    ("check_w", "bw_p"): "echo_w",
    ("echo_i", "ai"): "check_i",
    ("echo_i", "bi"): "check_i",
    ("check_i", "ai_p"): "echo_i",
    ("check_i", "bi_p"): "echo_i",
    # guessed data flowing into the verifiers
    ("check_w", "aw"): "guess_aw",
    ("check_w", "bw"): "guess_bw",
    ("echo_w", "aw_p"): "echo_aw",
    ("echo_w", "bw_p"): "echo_bw",
    ("check_i", "ai"): "guess_ai",
    ("check_i", "bi"): "guess_bi",
    ("echo_i", "ai_p"): "echo_ai",
    ("echo_i", "bi_p"): "echo_bi",
}

#: Decreasing read-to-read po pairs the construction allows: the verifier's
#: stream read at index i sits right before its echo reads at index i-1.
DEC_RR: frozenset[tuple[str, str, str]] = frozenset({
    ("check_w", "aw", "aw_p"),
    ("check_w", "aw", "bw_p"),
    ("check_w", "bw", "aw_p"),
    ("check_w", "bw", "bw_p"),
    ("check_i", "ai", "ai_p"),
    ("check_i", "ai", "bi_p"),
    ("check_i", "bi", "ai_p"),
    ("check_i", "bi", "bi_p"),
})

#: Write pairs whose happens-before crossings must skip an index: the echo
#: guesser's stream-echo write i only ever reaches guesser writes j > i+1.
WW_GAP2: tuple[tuple[str, str, str, str], ...] = (
    ("echo_aw", "aw_p", "guess_aw", "aw"),
    ("echo_ai", "ai_p", "guess_ai", "ai"),
    ("echo_bw", "bw_p", "guess_bw", "bw"),
    ("echo_bi", "bi_p", "guess_bi", "bi"),
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


@dataclass(frozen=True)
class PcpSolution:
    indices: tuple[int, ...]


def _indices(solution: PcpSolution | Sequence[int]) -> tuple[int, ...]:
    if isinstance(solution, PcpSolution):
        return solution.indices
    return tuple(solution)


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


def verify_solution(inst: PcpInstance, solution: PcpSolution | Sequence[int]) -> bool:
    """Direct check: nonempty, indices in range, concatenations equal."""
    js = _indices(solution)
    if not js or any(j < 1 or j > inst.n for j in js):
        return False
    left = "".join(inst.pairs[j - 1][0] for j in js)
    right = "".join(inst.pairs[j - 1][1] for j in js)
    return left == right


# --- the per-thread machines ------------------------------------------------


class _Side(NamedTuple):
    gw: str
    gi: str
    ew: str
    ei: str
    st_w: str
    st_i: str
    pr_w: str
    pr_i: str
    zw: str      # written by the word echo, read by the word guesser
    zw_p: str    # written by the word guesser, read by the word echo
    zi: str
    zi_p: str
    cross: str
    ell: str


_SIDES = {
    "a": _Side(
        "guess_aw", "guess_ai", "echo_aw", "echo_ai",
        "aw", "ai", "aw_p", "ai_p",
        "z_aw", "z_aw_p", "z_ai", "z_ai_p",
        "cross_a", "ell_a",
    ),
    "b": _Side(
        "guess_bw", "guess_bi", "echo_bw", "echo_bi",
        "bw", "bi", "bw_p", "bi_p",
        "z_bw", "z_bw_p", "z_bi", "z_bi_p",
        "cross_b", "ell_b",
    ),
}


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


def _guess_w_machine(side: _Side, words: dict[int, str]) -> _Spec:
    tid = side.gw

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
            return [("w", side.cross, _zv(m4), d) for d in dsts]
        if kind == "emit":
            _, m4, i4, first, p, pos = cfg
            i4n = (i4 + 1) % 4
            return [
                ("w", side.st_w, _sv(tid, first, words[p][pos]),
                 ("hand", m4, i4n, first, p, pos))
            ]
        if kind == "hand":
            _, m4, i4n, first, p, pos = cfg
            dst = advance(m4, i4n, p, pos) if first else ("read_z", m4, i4n, p, pos)
            return [("w", side.zw_p, _zv(i4n), dst)]
        if kind == "read_z":
            _, m4, i4n, p, pos = cfg
            return [("r", side.zw, _zv(i4n - 1), advance(m4, i4n, p, pos))]
        if kind == "link":
            _, m4, i4, p = cfg
            return [("r", side.ell, _lv(m4, str(p)), ("top", (m4 + 1) % 4, i4, False))]
        if kind == "bot_emit":
            _, m4, i4 = cfg
            i4n = (i4 + 1) % 4
            return [("w", side.st_w, _sv(tid, False, BOT), ("bot_hand", m4, i4n))]
        if kind == "bot_hand":
            _, m4, i4n = cfg
            return [("w", side.zw_p, _zv(i4n), ("bot_read_z", m4, i4n))]
        if kind == "bot_read_z":
            _, m4, i4n = cfg
            return [("r", side.zw, _zv(i4n - 1), ("bot_link", m4))]
        if kind == "bot_link":
            _, m4 = cfg
            return [("r", side.ell, _lv(m4, BOT), ("fin",))]
        return []

    return tid, ("top", 1, 0, True), step


def _guess_i_machine(side: _Side, n: int) -> _Spec:
    tid = side.gi

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
                ("w", side.st_i, _sv(tid, first, aux), ("z", m4, first, aux))
                for aux in auxes
            ]
        if kind == "z":
            _, m4, first, aux = cfg
            return [("w", side.zi_p, _zv(m4), ("link", m4, first, aux))]
        if kind == "link":
            _, m4, first, aux = cfg
            dst = nxt(m4, aux) if first else ("read_z", m4, aux)
            return [("w", side.ell, _lv(m4, aux), dst)]
        if kind == "read_z":
            _, m4, aux = cfg
            return [("r", side.zi, _zv(m4 - 1), ("read_cross", m4, aux))]
        if kind == "read_cross":
            _, m4, aux = cfg
            return [("r", side.cross, _zv(m4 - 1), nxt(m4, aux))]
        return []

    return tid, ("top", 1, True), step


def _echo_guess_machine(tid: str, pr: str, z_out: str, z_in: str) -> _Spec:
    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":  # may close after this round: same labels, two tracks
            _, i4, first = cfg
            return [
                ("w", pr, _sv(tid, first, "0"), ("z", i4, closing))
                for closing in (False, True)
            ]
        if kind == "z":
            _, i4, closing = cfg
            return [("w", z_out, _zv(i4), ("read_z", i4, closing))]
        if kind == "read_z":
            _, i4, closing = cfg
            dst = ("fin",) if closing else ("top", (i4 + 1) % 4, False)
            return [("r", z_in, _zv(i4), dst)]
        return []

    return tid, ("top", 1, True), step


def _check_machine(
    tid: str, st_a: str, st_b: str, pr_a: str, pr_b: str,
    ga: str, gb: str, echo: str, auxes: Sequence[str],
) -> _Spec:
    def nxt(i4: int, aux: str) -> tuple:
        return ("fin",) if aux == BOT else ("top", (i4 + 1) % 4, False)

    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":
            _, i4, first = cfg
            return [("w", st_a, f"{tid}:{_zv(i4)}", ("wb", i4, first))]
        if kind == "wb":
            _, i4, first = cfg
            return [("w", st_b, f"{tid}:{_zv(i4)}", ("ra", i4, first))]
        if kind == "ra":
            _, i4, first = cfg
            opts = list(auxes) + ([] if first else [BOT])
            return [
                ("r", st_a, _sv(ga, first, aux), ("rb", i4, first, aux))
                for aux in opts
            ]
        if kind == "rb":
            _, i4, first, aux = cfg
            dst = nxt(i4, aux) if first else ("pa", i4, aux)
            return [("r", st_b, _sv(gb, first, aux), dst)]
        if kind == "pa":
            _, i4, aux = cfg
            return [("r", pr_a, f"{echo}:{_zv(i4 - 1)}", ("pb", i4, aux))]
        if kind == "pb":
            _, i4, aux = cfg
            return [("r", pr_b, f"{echo}:{_zv(i4 - 1)}", nxt(i4, aux))]
        return []

    return tid, ("top", 1, True), step


def _echo_check_machine(
    tid: str, pr_a: str, pr_b: str, st_a: str, st_b: str,
    chk: str, ea: str, eb: str,
) -> _Spec:
    def step(cfg: tuple):
        kind = cfg[0]
        if kind == "top":
            _, i4, first = cfg
            return [
                ("w", pr_a, f"{tid}:{_zv(i4)}", ("wb", i4, first, closing))
                for closing in (False, True)
            ]
        if kind == "wb":
            _, i4, first, closing = cfg
            return [("w", pr_b, f"{tid}:{_zv(i4)}", ("ra", i4, first, closing))]
        if kind == "ra":
            _, i4, first, closing = cfg
            return [("r", st_a, f"{chk}:{_zv(i4)}", ("rb", i4, first, closing))]
        if kind == "rb":
            _, i4, first, closing = cfg
            return [("r", st_b, f"{chk}:{_zv(i4)}", ("pa", i4, first, closing))]
        if kind == "pa":
            _, i4, first, closing = cfg
            return [("r", pr_a, _sv(ea, first, "0"), ("pb", i4, first, closing))]
        if kind == "pb":
            _, i4, first, closing = cfg
            dst = ("fin",) if closing else ("top", (i4 + 1) % 4, False)
            return [("r", pr_b, _sv(eb, first, "0"), dst)]
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
    for key in ("a", "b"):
        side = _SIDES[key]
        specs += [
            _guess_w_machine(side, inst.words(key)),
            _guess_i_machine(side, inst.n),
            _echo_guess_machine(side.ew, side.pr_w, side.zw, side.zw_p),
            _echo_guess_machine(side.ei, side.pr_i, side.zi, side.zi_p),
        ]
    return specs + [
        _check_machine(
            "check_w", "aw", "bw", "aw_p", "bw_p",
            "guess_aw", "guess_bw", "echo_w", inst.alphabet,
        ),
        _echo_check_machine(
            "echo_w", "aw_p", "bw_p", "aw", "bw", "check_w", "echo_aw", "echo_bw",
        ),
        _check_machine(
            "check_i", "ai", "bi", "ai_p", "bi_p",
            "guess_ai", "guess_bi", "echo_i", [str(p) for p in range(1, inst.n + 1)],
        ),
        _echo_check_machine(
            "echo_i", "ai_p", "bi_p", "ai", "bi", "check_i", "echo_ai", "echo_bi",
        ),
    ]


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


def pcp_witness(inst: PcpInstance, solution: PcpSolution | Sequence[int]) -> Trace:
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
    js = _indices(solution)
    if not verify_solution(inst, js):
        raise InvalidSolution(f"{list(js)} does not solve the instance")
    letters = "".join(inst.words("a")[j] for j in js)
    alphabet = inst.alphabet

    def forks(options: list[int], width: int) -> list[int]:
        # a first block with one option is no fork and takes no choice
        return options[1:] if width == 1 else options

    def rounds(k: int) -> list[int]:
        return [0] * k + [1]

    pairs = forks([j - 1 for j in js] + [inst.n], inst.n)
    choices = {
        "check_w": forks([alphabet.index(ch) for ch in letters] + [len(alphabet)], len(alphabet)),
        "echo_w": rounds(len(letters)),
        "check_i": pairs,
        "echo_i": rounds(len(js)),
    }
    for side in _SIDES.values():
        choices.update({side.gw: pairs, side.gi: pairs, side.ew: rounds(len(letters)), side.ei: rounds(len(js))})
    words = {tid: _walk(tid, init, step, choices[tid]) for tid, init, step in _machines(inst)}
    return canonical_trace(_assemble(words))


def _assemble(words: dict[str, list[Label]]) -> ExecutionGraph:
    events: list[Event] = [
        Event(f"init.{x}", write("init", x, "0")) for x in LOCS
    ]
    po: dict[str, list[EventId]] = {}
    writes_of: dict[tuple[str, str], list[EventId]] = {}
    reads_of: dict[EventId, int] = {}
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
                reads_of[eid] = c
        po[tid] = row

    by_id = {ev.eid: ev for ev in events}
    rf: dict[EventId, EventId] = {}
    for eid, i in reads_of.items():
        ev = by_id[eid]
        writer = RF_WRITER[(ev.tid, ev.loc)]
        rf[eid] = writes_of[(writer, ev.loc)][i - 1]

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
