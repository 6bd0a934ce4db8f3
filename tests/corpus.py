"""Program corpus: the classic litmus tests plus seeded random generators."""

from __future__ import annotations

import json
import random

from rareach.graph import ExecutionGraph, build_graph, graph_to_json
from rareach.model import Lts, Program, parse_program, read, rmw, write
from rareach.trace import Run, Trace, make_trace, trace_to_json

MP = """
locs x y
vals 0 1
thread writer init a0 final a2
  a0 a1 w x 1
  a1 a2 w y 1
thread reader init b0 final b2
  b0 b1 r y 1
  b1 b2 r x 1
"""

MP_FORBIDDEN = """
locs x y
vals 0 1
thread writer init a0 final a2
  a0 a1 w x 1
  a1 a2 w y 1
thread reader init b0 final b2
  b0 b1 r y 1
  b1 b2 r x 0
"""

SB = """
locs x y
vals 0 1
thread left init a0 final a2
  a0 a1 w x 1
  a1 a2 r y 0
thread right init b0 final b2
  b0 b1 w y 1
  b1 b2 r x 0
"""

# two readers observing the two writes in opposite orders: 6 events total
CORR = """
locs x
vals 0 1 2
thread w1 init a0 final a1
  a0 a1 w x 1
thread w2 init b0 final b1
  b0 b1 w x 2
thread r1 init c0 final c2
  c0 c1 r x 1
  c1 c2 r x 2
thread r2 init d0 final d2
  d0 d1 r x 2
  d1 d2 r x 1
"""

TWIN_WRITE_LOOP = """
locs x
vals 0 1
thread t init q0 final q0
  q0 q1 w x 1
  q1 q0 r x 1
"""

#: message passing where the writer may flip x back and forth and the reader
#: may spin on x; the target needs the reader's last x read to see 0
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

#: x=0 is written only by init, which is mo-first; reading x=2 and then x=0
#: reads a write mo-before one that happens before the read
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

#: write-to-read causality: t3 sees y=1, written after t2 saw a non-init x,
#: so reading the init value x=0 in t3 violates read coherence
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

#: the loop programs above, in that order
LOOPS = (MP_LOOP, CORR_LOOP, WRC_LOOP)

#: (contexts, rmws, cap) of the search's differential tests and of the verdict sweep
MEMO_BUDGETS = [(1, 0, 5), (2, 1, 6), (3, 2, 6), (4, 4, 5)]


def dump_graph_json(graph: ExecutionGraph) -> str:
    """The graph's JSON text, as the command line tool writes it."""
    return json.dumps(graph_to_json(graph), indent=2, sort_keys=True) + "\n"


def dump_trace_json(trace: Trace) -> str:
    """The trace's JSON text, as the command line tool writes it."""
    return json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n"


def mp() -> Program:
    return parse_program(MP)


def mp_forbidden() -> Program:
    return parse_program(MP_FORBIDDEN)


def sb() -> Program:
    return parse_program(SB)


def corr() -> Program:
    return parse_program(CORR)


def twin_write_loop() -> Program:
    return parse_program(TWIN_WRITE_LOOP)


def twin_write_trace(rounds: int = 2) -> Trace:
    """``rounds`` write/read iterations of the loop as one single-run trace."""
    events = [("init.x", write("init", "x", "0"))]
    row: list[str] = []
    rf: dict[str, str] = {}
    mo = ["init.x"]
    for i in range(1, rounds + 1):
        w, r = f"e{2 * i - 1}", f"e{2 * i}"
        events.append((w, write("t", "x", "1")))
        events.append((r, read("t", "x", "1")))
        rf[r] = w
        mo.append(w)
        row.extend((w, r))
    graph = build_graph(events, rf, {"x": mo})
    return make_trace(graph, [Run("t", tuple(row))])


# --- random programs -------------------------------------------------------------

_LOCS = ("x", "y")
_VALS = ("0", "1")


def random_program(seed: int, rmw_prob: float = 0.0) -> Program:
    """A seeded random program: <= 3 threads, <= 4 transitions each."""
    rng = random.Random(seed)
    locs = _LOCS[: rng.randint(1, 2)]
    threads: dict[str, Lts] = {}
    for i in range(rng.randint(1, 3)):
        tid = f"t{i}"
        states = [f"q{j}" for j in range(rng.randint(2, 3))]
        transitions = set()
        for _ in range(rng.randint(1, 4)):
            src, dst = rng.choice(states), rng.choice(states)
            loc = rng.choice(locs)
            roll = rng.random()
            if roll < rmw_prob:
                lab = rmw(tid, loc, rng.choice(_VALS), rng.choice(_VALS))
            elif roll < 0.5 + rmw_prob / 2:
                lab = write(tid, loc, rng.choice(_VALS))
            else:
                lab = read(tid, loc, rng.choice(_VALS))
            transitions.add((src, lab, dst))
        threads[tid] = Lts(
            init="q0",
            final=rng.choice(states),
            transitions=frozenset(transitions),
        )
    return Program(
        threads=threads,
        locs=frozenset(locs),
        vals=frozenset(_VALS),
        init_vals={x: "0" for x in locs},
    )


#: Loopy single- and two-thread programs whose graphs carry repeated
#: summaries — the reduction tests need traces with collapsible pairs.
LOOPY = (
    TWIN_WRITE_LOOP,
    """
locs x
vals 0 1
thread t init q0 final q0
  q0 q1 w x 1
  q1 q0 w x 0
""",
    """
locs x y
vals 0 1
thread p init q0 final q0
  q0 q1 w x 1
  q1 q0 r y 0
thread c init s0 final s0
  s0 s1 r x 1
  s1 s0 w y 0
""",
)

#: Loop programs exercising update events, for the rmw-mode tests.
LOOPY_RMW = (
    """
locs x
vals 0 1
thread t init q0 final q0
  q0 q1 rmw x 0 1
  q1 q0 w x 0
""",
    """
locs x
vals 0 1
thread t init q0 final q0
  q0 q1 w x 1
  q1 q0 r x 1
thread u init s0 final s0
  s0 s0 rmw x 1 1
""",
)


#: Tiny update-event programs for the search's rmw checks: a chain of two
#: updates in one thread (the rmw budget), two updates racing on one source
#: (atomicity), and an update next to a plain write that could wedge between
#: the update and its source.
UPDATE_CHAIN = """
locs x
vals 0 1 2
thread t init q0 final q2
  q0 q1 rmw x 0 1
  q1 q2 rmw x 1 2
"""

UPDATE_RACE = """
locs x
vals 0 1
thread a init a0 final a1
  a0 a1 rmw x 0 1
thread b init b0 final b1
  b0 b1 rmw x 0 1
"""

UPDATE_WEDGE = """
locs x
vals 0 1 2
thread a init a0 final a1
  a0 a1 rmw x 0 1
thread b init b0 final b1
  b0 b1 w x 2
"""


#: Part of the search memo -> (program, contexts, rmws).  Every witness
#: within the budget and 6 events passes through a node that the memo
#: without that part would skip: a key component would merge its state with
#: one that the search meets first, at the same depth, and that reaches
#: nothing; without a condition of the covering check a first meeting that
#: spent more would cover it: one run more ("runs"), the same runs with
#: another thread active ("active thread"), more updates ("updates used")
#: or more events ("depth", "depth through a read loop").
MEMO_PARTS = {
    # t's two choices differ only in the value written
    "value written": ("""
locs x
vals 0 1 2
thread t init a0 final a1
  a0 a1 w x 1
  a0 a1 w x 2
thread u init b0 final b1
  b0 b1 r x 2
""", 2, 0),
    # t's two choices differ only in the location written
    "location": ("""
locs x y
vals 0 1
thread t init a0 final a1
  a0 a1 w x 1
  a0 a1 w y 1
thread u init b0 final b1
  b0 b1 r y 1
""", 2, 0),
    # t's two write orders differ only in the view of t's y write
    "writer view": ("""
locs x y
vals 0 1
thread t init a0 final a3
  a0 a1 w x 1
  a1 a3 w y 1
  a0 a2 w y 1
  a2 a3 w x 1
thread u init b0 final b2
  b0 b1 r y 1
  b1 b2 r x 0
""", 2, 0),
    # u's two reads of x differ only in u's view; v keeps the cut at init
    "thread view": ("""
locs x y z
vals 0 1
init x=1 y=0 z=0
thread t init a0 final a2
  a0 a1 w y 1
  a1 a2 w x 0
thread u init b0 final b3
  b0 b1 r y 1
  b1 b2 r x 0
  b1 b2 r x 1
  b2 b3 r x 1
thread v init c0 final c0
  c0 c1 w z 1
""", 2, 0),
    # b's x write, then a's run, or a's z write first: one run more
    "runs": ("""
locs x y z
vals 0 1
thread a init p0 final p3
  p0 p1 w z 1
  p1 p2 r x 1
  p2 p3 w y 1
thread b init q0 final q2
  q0 q1 w x 1
  q1 q2 r y 1
""", 3, 0),
    # a, then b, or b, then a: only a can still move
    "active thread": ("""
locs x z
vals 0 1
thread a init p0 final p2
  p0 p1 w z 1
  p1 p2 r x 1
thread b init q0 final q1
  q0 q1 w x 1
""", 2, 0),
    # x=1 written by an update leaves no update for the last step
    "updates used": ("""
locs x y
vals 0 1 2
thread t init a0 final a4
  a0 a1 rmw x 0 1
  a0 a1 w x 1
  a1 a2 rmw x 1 2
  a2 a3 r y 1
  a3 a4 rmw x 2 0
thread u init b0 final b2
  b0 b1 r x 2
  b1 b2 w y 1
""", 3, 2),
    # u can put x=2 in mo before a plain x=1, not before an update of init
    "is an update": ("""
locs x y z
vals 0 1 2
thread t init a0 final a4
  a0 a1 w z 1
  a1 a2 rmw x 0 1
  a1 a3 w x 1
  a2 a4 w y 1
  a3 a4 rmw y 0 1
thread u init b0 final b3
  b0 b1 r z 1
  b1 b2 w x 2
  b2 b3 r x 1
""", 2, 1),
    # a3 is met first three events deep, where the last four writes pass the cap
    "depth": ("""
locs x y
vals 0 1
thread t init a0 final a7
  a0 a1 r x 0
  a1 a2 r x 0
  a2 a3 r x 0
  a0 a3 r y 0
  a3 a4 w x 1
  a4 a5 w x 1
  a5 a6 w x 1
  a6 a7 w x 1
""", 1, 0),
    # the reader's loop on x=1 comes first and reaches r1 one event deeper than reading y=1 alone,
    # which already gives the reader the view of x=1; from r1 three writes reach the cap
    "depth through a read loop": ("""
locs x y z
vals 0 1
thread reader init r0 final r4
  r0 r0 r x 1
  r0 r1 r y 1
  r1 r2 w z 1
  r2 r3 w z 1
  r3 r4 w z 1
thread writer init w0 final w2
  w0 w1 w x 1
  w1 w2 w y 1
""", 2, 0),
}


def loopy_programs() -> list[Program]:
    return [parse_program(text) for text in LOOPY]


def loopy_rmw_programs() -> list[Program]:
    return [parse_program(text) for text in LOOPY_RMW]
