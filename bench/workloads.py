"""Benchmark workloads: seeded inputs, the CLI ops that run on them, and the
independent references their outputs are checked against.

Each workload is built by a ``setup_*`` function that writes its input files
into a work directory and returns the ops to time.  The benchmark seed only
shapes the generated files; the CLI sees nothing but those files.  Where the
seed renames threads, locations, values, control states or PCP letters, the
renamed input is isomorphic to the unrenamed one, so every seed costs the
same work while no two seeds feed the program identical bytes.

The references never ask the engine under test for the answer it is being
checked on: programs are replayed by :func:`replays` below, consistency
comes from ``tests/oracle.py``, and the expected verdicts follow from how
the inputs were built (see each workload's comments).
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

# --- a small program model, independent of rareach.model ---------------------


@dataclass
class Prog:
    """Program text as data: ``threads`` maps a thread to (init, final, transitions).

    A transition is ``(src, dst, kind, loc, vals)`` with ``kind`` one of
    ``r``/``w``/``rmw`` and ``vals`` the value tokens of the text line.
    """

    locs: list[str]
    vals: list[str]
    init: dict[str, str]
    threads: dict[str, tuple[str, str, list[tuple[str, str, str, str, tuple[str, ...]]]]]


def parse_text(text: str) -> Prog:
    prog = Prog([], [], {}, {})
    tid = None
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "locs":
            prog.locs = toks[1:]
        elif toks[0] == "vals":
            prog.vals = toks[1:]
        elif toks[0] == "init":
            prog.init = dict(item.split("=", 1) for item in toks[1:])
        elif toks[0] == "thread":
            tid = toks[1]
            prog.threads[tid] = (toks[3], toks[5], [])
        else:
            prog.threads[tid][2].append((toks[0], toks[1], toks[2], toks[3], tuple(toks[4:])))
    for loc in prog.locs:
        prog.init.setdefault(loc, "0")
    return prog


def to_text(prog: Prog) -> str:
    lines = [
        "locs " + " ".join(prog.locs),
        "vals " + " ".join(prog.vals),
        "init " + " ".join(f"{x}={prog.init[x]}" for x in prog.locs),
    ]
    for tid, (init, final, trans) in prog.threads.items():
        lines.append(f"thread {tid} init {init} final {final}")
        lines.extend(f"  {s} {d} {k} {x} {' '.join(vs)}" for s, d, k, x, vs in trans)
    return "\n".join(lines) + "\n"


class Renamer:
    """Seeded injective renaming of thread, location, value and state names."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.maps: dict[str, dict[str, str]] = {}

    def __call__(self, kind: str, name: str) -> str:
        table = self.maps.setdefault(kind, {})
        if name not in table:
            used = set(table.values())
            while True:
                new = f"{kind}{self.rng.randrange(1000)}"
                if new not in used:
                    break
            table[name] = new
        return table[name]


def renamed(prog: Prog, ren: Renamer) -> Prog:
    """An isomorphic copy with fresh names and shuffled declaration order."""
    rng = ren.rng
    locs = [ren("l", x) for x in prog.locs]
    vals = [ren("v", v) for v in prog.vals]
    rng.shuffle(locs)
    rng.shuffle(vals)
    threads = {}
    tids = list(prog.threads)
    rng.shuffle(tids)
    for tid in tids:
        init, final, trans = prog.threads[tid]
        q = lambda s: ren("q", f"{tid}.{s}")  # noqa: E731 - states are per thread
        rows = [(q(s), q(d), k, ren("l", x), tuple(ren("v", v) for v in vs)) for s, d, k, x, vs in trans]
        rng.shuffle(rows)
        threads[ren("t", tid)] = (q(init), q(final), rows)
    init = {ren("l", x): ren("v", v) for x, v in prog.init.items()}
    return Prog(locs, vals, init, threads)


def replays(prog: Prog, words: dict[str, list[tuple[str, str, tuple[str, ...]]]], final: bool = True) -> bool:
    """Whether every thread can execute its word of ``(kind, loc, vals)`` labels
    (and, with ``final``, end in its final state)."""
    if set(words) - set(prog.threads):
        return False
    for tid, (init, fin, trans) in prog.threads.items():
        states = {init}
        for lab in words.get(tid, ()):
            states = {d for s, d, k, x, vs in trans if s in states and (k, x, vs) == lab}
        if not states or (final and fin not in states):
            return False
    return True


def graph_words(graph: dict) -> dict[str, list[tuple[str, str, tuple[str, ...]]]]:
    """Per-thread label words of a graph JSON object (events are listed in po order)."""
    words: dict[str, list] = {}
    for ev in graph["events"]:
        if ev["tid"] == "init":
            continue
        vals = tuple(v for v in (ev["valR"], ev["valW"]) if v is not None)
        words.setdefault(ev["tid"], []).append((ev["op"], ev["loc"], vals))
    return words


def count_candidates(prog: Prog, max_events: int) -> int:
    """Execution graphs the naive enumerator builds and checks, counted without building them.

    For every combination of per-thread words with at most ``max_events``
    labels in total, the enumerator tries each reads-from choice (a write of
    the read value on the read's location, not the read itself) times each
    modification order (every permutation of the non-init writes per
    location); a combination with an unreadable read yields none.
    """
    per_thread = []
    for init, _, trans in prog.threads.values():
        # (length, sorted labels) -> number of distinct words with that label multiset
        words: Counter = Counter({(0, ()): 1})
        layer: Counter = Counter({((), frozenset({init})): 1})
        for n in range(1, max_events + 1):
            nxt: Counter = Counter()
            for (labs, states), k in layer.items():
                for lab in {(kd, x, vs) for s, _, kd, x, vs in trans if s in states}:
                    img = frozenset(d for s, d, kd, x, vs in trans if s in states and (kd, x, vs) == lab)
                    nxt[(tuple(sorted(labs + (lab,))), img)] += k
            layer = nxt
            for (labs, _), k in layer.items():
                words[(n, labs)] += k
        per_thread.append(list(words.items()))

    def for_labels(labs: tuple) -> int:
        writers = Counter((x, v) for x, v in prog.init.items())
        own = Counter()
        for kd, x, vs in labs:
            if kd != "r":
                writers[(x, vs[-1])] += 1
                own[x] += 1
        total = 1
        for kd, x, vs in labs:
            if kd != "w":
                self_write = kd == "rmw" and vs[0] == vs[1]
                total *= writers[(x, vs[0])] - self_write
        for k in own.values():
            total *= math.factorial(k)
        return total

    def walk(i: int, n: int, labs: tuple, mult: int) -> int:
        if i == len(per_thread):
            return mult * for_labels(labs)
        return sum(
            walk(i + 1, n + length, labs + more, mult * k)
            for (length, more), k in per_thread[i]
            if n + length <= max_events
        )

    return walk(0, 0, (), 1)


# --- ops ----------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation and the reference its output must match.

    ``ref["kind"]`` selects the check (``Checker.check_<kind>`` in
    ``run.py``); the other keys are that check's expectations.
    """

    name: str
    argv: list[str]
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    programs: dict[str, Prog]  # input path -> program, for replays


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# --- gadget-search -------------------------------------------------------------
#
# A wide, shallow DFS over 12 large LTSs.  Almost all the time is node
# expansion in the decider; the target is never hit, so graph construction,
# consistency and trace validation never run.

PCP_PAIRS = (("a", "aa"), ("ab", "b"))  # solved by 1,2: "a"+"ab" == "aa"+"b"


def pcp_instance(rng: random.Random) -> tuple[str, dict[int, int]]:
    """The instance with seeded letters and pair order; returns text and index map."""
    letters = dict(zip("ab", rng.sample("cdefghjkmnpqrstuvwxyz", 2)))
    order = [0, 1]
    rng.shuffle(order)
    lines = []
    for i in order:
        a, b = PCP_PAIRS[i]
        lines.append(f"pair {''.join(letters[c] for c in a)} : {''.join(letters[c] for c in b)}")
    return "\n".join(lines) + "\n", {i + 1: order.index(i) + 1 for i in range(2)}


def solution_arg(index_map: dict[int, int], solution: tuple[int, ...]) -> str:
    return ",".join(str(index_map[i]) for i in solution)


def compile_gadget(main, work: str, inst_text: str) -> tuple[str, str]:
    inst = _write(os.path.join(work, "inst.txt"), inst_text)
    gadget = os.path.join(work, "gadget.txt")
    if main(["pcp", "compile", inst, "-o", gadget]) != 0:
        raise RuntimeError("pcp compile failed during set-up")
    return inst, gadget


def setup_gadget_search(main, rng: random.Random, work: str, tiny: bool) -> Workload:
    inst_text, _ = pcp_instance(rng)
    _, gadget = compile_gadget(main, work, inst_text)
    with open(gadget, encoding="utf-8") as fh:
        prog = parse_text(fh.read())
    cap = 2 if tiny else 4
    # Every thread has to move to reach its final state, so a reaching trace
    # has at least `movers` events; with more movers than the cap, and the cap
    # far below the small-model bound, the only correct verdict is inconclusive.
    movers = sum(init != final for init, final, _ in prog.threads.values())
    if movers <= cap:
        raise RuntimeError("gadget reference argument needs more moving threads than the cap")
    op = Op(
        "reach gadget c12",
        ["reach", gadget, "--contexts", "12", "--event-cap", str(cap), "--json"],
        {"kind": "reach", "allowed": ["inconclusive"], "program": gadget},
    )
    return Workload([op], {gadget: prog})


# --- loop-search -----------------------------------------------------------------
#
# A deep, narrow DFS over tiny LTSs whose loops make the tree grow with the
# cap; most placements are pruned by the axioms.  Every target is
# unreachable under release/acquire for the reason given with the program,
# so `reachable` is always wrong.  An exhaustive search may legitimately
# answer unreachable-within-bound; at these caps today's engine answers
# inconclusive.

# The writer may cycle x through 1 and 0 but always writes x=1 right before
# y=1; a reader that sees y=1 therefore sees that x=1, and reading x=0 after
# it violates read coherence.
MP_LOOP = """
locs x y
vals 0 1
init x=0 y=0
thread writer init a0 final a3
  a0 a1 w x 1
  a1 a2 w x 0
  a2 a1 w x 1
  a1 a3 w y 1
thread reader init b0 final b2
  b0 b0 r x 1
  b0 b0 r x 0
  b0 b1 r y 1
  b1 b2 r x 0
"""

# x=0 is written only by init, which is mo-first; reading x=2 and then x=0
# reads a write mo-before one that happens before the read.
CORR_LOOP = """
locs x
vals 0 1 2
init x=0
thread writer init a0 final a0
  a0 a1 w x 1
  a1 a0 w x 2
thread reader init b0 final b2
  b0 b0 r x 1
  b0 b1 r x 2
  b1 b2 r x 0
"""

# Write-to-read causality: t3 sees y=1, written after t2 saw a non-init x,
# so reading the init value x=0 in t3 violates read coherence.
WRC_LOOP = """
locs x y
vals 0 1 2
init x=0 y=0
thread t1 init a0 final a0
  a0 a1 w x 1
  a1 a0 w x 2
thread t2 init b0 final b2
  b0 b1 r x 1
  b1 b1 r x 2
  b1 b2 w y 1
thread t3 init c0 final c2
  c0 c1 r y 1
  c1 c2 r x 0
"""

# (name, program, contexts, cap, tiny cap)
LOOP_OPS = (
    ("mp-loop", MP_LOOP, 2, 13, 6),
    ("corr-loop", CORR_LOOP, 2, 18, 6),
    ("mp-loop", MP_LOOP, 3, 10, 5),
    ("wrc-loop", WRC_LOOP, 3, 16, 6),
)
LOOP_NAIVE_CAP = 5


def setup_loop_search(main, rng: random.Random, work: str, tiny: bool) -> Workload:
    ops, programs, paths = [], {}, {}
    for name, text, contexts, cap, tiny_cap in LOOP_OPS:
        if name not in paths:
            prog = renamed(parse_text(text), Renamer(rng))
            paths[name] = _write(os.path.join(work, f"{name}.txt"), to_text(prog))
            programs[paths[name]] = prog
        cap = tiny_cap if tiny else cap
        ops.append(Op(
            f"reach {name} c{contexts}",
            ["reach", paths[name], "--contexts", str(contexts), "--event-cap", str(cap), "--json"],
            {
                "kind": "reach",
                "allowed": ["inconclusive", "unreachable-within-bound"],
                "program": paths[name],
                "naive_cap": min(cap, LOOP_NAIVE_CAP),
                "contexts": contexts,
            },
        ))
    return Workload(ops, programs)


# --- naive-enum --------------------------------------------------------------------
#
# Exhaustive graph enumeration over the update-event corpus of acceptance
# criterion 4.  Nearly all the time is graph construction and consistency
# checking of candidate graphs; the budgeted search does nothing.

NAIVE_CORPUS = 12
NAIVE_MAX_EVENTS = 5
NAIVE_REACH_CAP = 4
# Programs whose full 5-event enumeration would build more candidate graphs
# than this are enumerated at 4 events, so no single program dominates a run.
NAIVE_CANDIDATE_LIMIT = 50_000


def rmw_corpus() -> list[Prog]:
    """Acceptance criterion 4's corpus: the update loops plus seeded programs with 1-2 updates."""
    from rareach.model import serialize_program
    from tests import corpus

    progs = [parse_text(text) for text in corpus.LOOPY_RMW]
    seed = 50
    while len(progs) < NAIVE_CORPUS:
        prog = parse_text(serialize_program(corpus.random_program(seed, rmw_prob=0.3)))
        if 1 <= sum(kind == "rmw" for _, _, trans in prog.threads.values() for _, _, kind, _, _ in trans) <= 2:
            progs.append(prog)
        seed += 1
    return progs


def setup_naive_enum(main, rng: random.Random, work: str, tiny: bool) -> Workload:
    ops, programs = [], {}
    corpus = rmw_corpus()[:4] if tiny else rmw_corpus()
    for i, base in enumerate(corpus):
        prog = renamed(base, Renamer(rng))
        path = _write(os.path.join(work, f"rmw{i}.txt"), to_text(prog))
        programs[path] = prog
        events = 3 if tiny else NAIVE_MAX_EVENTS
        candidates = count_candidates(prog, events)
        while events > NAIVE_REACH_CAP and candidates > NAIVE_CANDIDATE_LIMIT:
            events -= 1
            candidates = count_candidates(prog, events)
        enum = Op(
            f"enumerate rmw{i} e{events}",
            ["enumerate", path, "--max-events", str(events), "--json"],
            {"kind": "enumerate", "program": path, "max_events": events, "candidates": candidates},
        )
        cap = min(events, NAIVE_REACH_CAP)
        ops.append(enum)
        ops.append(Op(
            f"reach --naive rmw{i}",
            ["reach", path, "--naive", "--contexts", str(cap), "--event-cap", str(cap), "--json"],
            {"kind": "naive", "program": path, "cap": cap, "enumeration": enum.name},
        ))
    return Workload(ops, programs)


# --- reduce-fixpoint -----------------------------------------------------------------
#
# Reduction to a fixpoint on long loop traces (one find_collapsible pass and
# one trace rebuild per step), plus building and auditing the gadget
# witnesses, which are irreducible.  The search engines do nothing.

TWIN_LOOP = """
locs x
vals 0 1
init x=0
thread t init q0 final q0
  q0 q1 w x 1
  q1 q0 r x 1
"""

# The consumer's run reads the producer's last write, so collapsing the
# producer's run has to compare happens-before from the replaced writes.
PRODUCER_CONSUMER = """
locs x y
vals 0 1
init x=0 y=0
thread p init q0 final q0
  q0 q1 w x 1
  q1 q0 r y 0
thread c init s0 final s0
  s0 s1 r x 1
  s1 s0 w y 0
"""

TWIN_ROUNDS, PC_ROUNDS = 100, 40
WITNESSES = ((1, 2), (1, 2, 1, 2))


def loop_trace(prog: Prog, order: list[str], rounds: int) -> dict:
    """Trace JSON running each thread's two-transition loop ``rounds`` times, one run per thread.

    Threads run in ``order``; a read takes the latest write to its location
    by its own thread, else the last write of an earlier thread, else init.
    """
    events, mo, rf, runs = [], {}, [], []
    for x in sorted(prog.locs):
        mo[x] = [len(events)]
        events.append({"id": len(events), "tid": "init", "op": "w", "loc": x, "valR": None, "valW": prog.init[x]})
    last: dict[tuple[str, str], int] = {}
    for tid in order:
        init, _, trans = prog.threads[tid]
        loop = sorted(trans, key=lambda tr: tr[0] != init)
        run = []
        for _ in range(rounds):
            for _, _, kind, x, vs in loop:
                eid = len(events)
                ev = {"id": eid, "tid": tid, "op": kind, "loc": x, "valR": None, "valW": None}
                if kind == "w":
                    ev["valW"] = vs[0]
                    mo[x].append(eid)
                    last[(tid, x)] = eid
                else:
                    ev["valR"] = vs[0]
                    writers = [last[(t, x)] for t in (tid, *reversed(order)) if (t, x) in last]
                    rf.append([eid, writers[0] if writers else mo[x][0]])
                events.append(ev)
                run.append(eid)
        runs.append({"tid": tid, "events": run})
    return {"graph": {"events": events, "rf": rf, "mo": mo}, "runs": runs}


def setup_reduce_fixpoint(main, rng: random.Random, work: str, tiny: bool) -> Workload:
    ops, programs = [], {}
    for name, text, rounds in (("twin", TWIN_LOOP, TWIN_ROUNDS), ("producer-consumer", PRODUCER_CONSUMER, PC_ROUNDS)):
        base, ren = parse_text(text), Renamer(rng)
        prog = renamed(base, ren)
        path = _write(os.path.join(work, f"{name}.txt"), to_text(prog))
        programs[path] = prog
        order = [ren("t", tid) for tid in base.threads]
        trace = _write(os.path.join(work, f"{name}.json"), json.dumps(loop_trace(prog, order, 4 if tiny else rounds)))
        ops.append(Op(
            f"reduce {name}",
            ["reduce", trace, "--program", path, "--fixpoint", "--json"],
            {"kind": "reduce", "program": path, "input": trace},
        ))
    inst_text, index_map = pcp_instance(rng)
    inst, gadget = compile_gadget(main, work, inst_text)
    with open(gadget, encoding="utf-8") as fh:
        programs[gadget] = parse_text(fh.read())
    for sol in WITNESSES[:1] if tiny else WITNESSES:
        ops.append(Op(
            f"pcp witness {len(sol)}",
            ["pcp", "witness", inst, "--solution", solution_arg(index_map, sol), "--check"],
            {"kind": "witness", "program": gadget},
        ))
    witness = os.path.join(work, "witness.json")
    if main(["pcp", "witness", inst, "--solution", solution_arg(index_map, WITNESSES[-1]), "-o", witness]) != 0:
        raise RuntimeError("pcp witness failed during set-up")
    ops.append(Op(
        "reduce witness",
        ["reduce", witness, "--program", gadget, "--fixpoint", "--json"],
        {"kind": "reduce", "program": gadget, "input": witness, "steps": 0},
    ))
    return Workload(ops, programs)


SETUPS = {
    "gadget-search": setup_gadget_search,
    "loop-search": setup_loop_search,
    "naive-enum": setup_naive_enum,
    "reduce-fixpoint": setup_reduce_fixpoint,
}
