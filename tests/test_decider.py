"""Reachability: exhaustive enumeration vs the budgeted incremental search."""

import functools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareach import decider
from rareach.consistency import _CONSISTENT, AXIOM_ORDER, Axiom, check_axiom, check_ra
from rareach.decider import (
    ReachStatus,
    SearchConfig,
    SearchStats,
    bounded_reach,
    enumerate_graphs,
    naive_reach,
)
from rareach.errors import GraphError
from rareach.graph import build_graph, graph_to_json, reaches
from rareach.model import final_vector, parse_program
from rareach.pcp import compile_pcp, parse_pcp
from rareach.trace import ContextBudget, trace_to_json

from tests import corpus
from tests.corpus import CORR_LOOP, LOOPS, MEMO_BUDGETS, MP_LOOP, WRC_LOOP, dump_graph_json
from tests.oracle import consistent_oracle, hb_pairs_oracle, least_violation_oracle, view_reach
from tests.test_acceptance import rmw_corpus


def cfg(contexts, rmws=0, cap=None, seed=0, max_nodes=None):
    return SearchConfig(ContextBudget(contexts, rmws), cap, seed, max_nodes)


class TestEnumerate:
    def test_mp_count_frozen(self, mp_program):
        graphs = list(enumerate_graphs(mp_program, 4))
        assert len(graphs) == 5

    def test_all_consistent_and_distinct(self, mp_program):
        graphs = list(enumerate_graphs(mp_program, 4))
        assert all(consistent_oracle(g) for g in graphs)
        blobs = [graph_to_json(g) for g in graphs]
        assert len({str(b) for b in blobs}) == len(blobs)

    def test_event_budget_respected(self, mp_program):
        for g in enumerate_graphs(mp_program, 3):
            assert len(g.non_init_events()) <= 3

    def test_zero_budget_leaves_init_only(self, mp_program):
        graphs = list(enumerate_graphs(mp_program, 0))
        assert len(graphs) == 1
        assert graphs[0].non_init_events() == []

    def test_deterministic_order(self, mp_program):
        a = [graph_to_json(g) for g in enumerate_graphs(mp_program, 4)]
        b = [graph_to_json(g) for g in enumerate_graphs(mp_program, 4)]
        assert a == b


class TestNaive:
    def test_mp_reachable(self, mp_program):
        v = naive_reach(mp_program, 4)
        assert v.reachable and v.status is ReachStatus.REACHABLE
        assert v.explored.visited == 5
        g = v.witness.graph
        assert check_ra(g).consistent
        assert reaches(g, mp_program, final_vector(mp_program))

    def test_mp_forbidden_outcome(self):
        v = naive_reach(corpus.mp_forbidden(), 4)
        assert v.status is ReachStatus.UNREACHABLE_WITHIN_BOUND
        assert v.witness is None

    def test_store_buffering_allowed(self):
        assert naive_reach(corpus.sb(), 4).reachable

    def test_opposite_read_orders_forbidden(self):
        assert not naive_reach(corpus.corr(), 6).reachable

    def test_stats_json_shape(self, mp_program):
        v = naive_reach(mp_program, 4)
        assert set(v.explored.to_json()) == {"visited", "prunes", "maxEvents"}


class TestBounded:
    def test_mp_two_contexts(self, mp_program):
        v = bounded_reach(mp_program, cfg(2))
        assert v.reachable
        assert (v.explored.visited, v.explored.prunes) == (5, 0)
        assert ContextBudget(2, 0).admits(v.witness)
        assert check_ra(v.witness.graph).consistent
        assert reaches(v.witness.graph, mp_program, final_vector(mp_program))

    def test_mp_one_context_unreachable(self, mp_program):
        v = bounded_reach(mp_program, cfg(1))
        assert v.status is ReachStatus.UNREACHABLE_WITHIN_BOUND

    def test_event_cap_inconclusive(self, mp_program):
        v = bounded_reach(mp_program, cfg(2, cap=1))
        assert v.status is ReachStatus.INCONCLUSIVE

    def test_bound_once_per_search(self, mp_program, monkeypatch):
        calls = []
        monkeypatch.setattr(decider, "small_model_bound", lambda *a: calls.append(a) or 10**9)
        assert bounded_reach(mp_program, cfg(4000, cap=4)).reachable
        assert len(calls) == 1
        assert bounded_reach(mp_program, cfg(2, cap=1)).status is ReachStatus.INCONCLUSIVE
        assert len(calls) == 2

    def test_bound_once_without_a_cap(self, monkeypatch):
        # the cap is the bound, so a truncated search never asks for it again
        calls = []
        monkeypatch.setattr(decider, "small_model_bound", lambda *a: calls.append(a) or 3)
        v = bounded_reach(corpus.mp_forbidden(), cfg(2))
        assert (v.status, len(calls)) == (ReachStatus.UNREACHABLE_WITHIN_BOUND, 1)

    def test_bound_past_the_ceiling_is_inconclusive(self, monkeypatch):
        # an uncapped search truncated at the bound decides, one truncated short of it does not
        monkeypatch.setattr(decider, "small_model_bound", lambda *a: 13)
        prog = parse_program(MP_LOOP)
        assert bounded_reach(prog, cfg(2)).status is ReachStatus.UNREACHABLE_WITHIN_BOUND
        monkeypatch.setattr(decider, "_BOUND_CEILING", 12)
        assert bounded_reach(prog, cfg(2)).status is ReachStatus.INCONCLUSIVE

    def test_small_cap_under_a_huge_budget(self, mp_program):
        # the bound stops counting past the cap instead of summing a million contexts
        assert bounded_reach(mp_program, cfg(10**6, cap=3)).status is ReachStatus.INCONCLUSIVE

    def test_cap_at_bound_is_conclusive(self):
        # a tight cap that still covers the small-model bound must not
        # downgrade the verdict
        prog = corpus.mp_forbidden()
        v = bounded_reach(prog, cfg(1, cap=10**9))
        assert v.status is ReachStatus.UNREACHABLE_WITHIN_BOUND

    def test_store_buffering_allowed(self):
        assert bounded_reach(corpus.sb(), cfg(2)).reachable

    def test_opposite_read_orders_forbidden(self):
        v = bounded_reach(corpus.corr(), cfg(4, cap=6))
        assert not v.reachable

    def test_deterministic_same_seed(self, mp_program):
        a = bounded_reach(mp_program, cfg(2))
        b = bounded_reach(mp_program, cfg(2))
        assert a.status is b.status
        assert a.witness.runs == b.witness.runs
        assert a.explored.to_json() == b.explored.to_json()

    def test_seed_keeps_verdict(self, mp_program):
        for seed in (1, 7, 42):
            assert bounded_reach(mp_program, cfg(2, seed=seed)).reachable
            assert not bounded_reach(corpus.corr(), cfg(3, cap=6, seed=seed)).reachable

    def test_prunes_counted(self):
        v = bounded_reach(corpus.corr(), cfg(4, cap=6))
        assert v.explored.prunes > 0


class TestAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_naive_vs_bounded_random(self, seed):
        prog = corpus.random_program(seed)
        truth = naive_reach(prog, 4)
        search = bounded_reach(prog, cfg(4, rmws=4, cap=4))
        assert truth.reachable == search.reachable

    @pytest.mark.parametrize("seed", range(10, 16))
    def test_naive_vs_bounded_with_updates(self, seed):
        prog = corpus.random_program(seed, rmw_prob=0.4)
        truth = naive_reach(prog, 4)
        search = bounded_reach(prog, cfg(4, rmws=4, cap=4))
        assert truth.reachable == search.reachable

    def test_stats_default(self):
        assert SearchStats().to_json() == {"visited": 0, "prunes": 0, "maxEvents": 0}


#: a's update of init, then a's x=3; b writes x=2 and reads x=3, so b's write
#: sits in mo between the update and x=3
AFTER_AN_UPDATE = """
locs x
vals 0 1 2 3
thread a init a0 final a2
  a0 a1 rmw x 0 1
  a1 a2 w x 3
thread b init b0 final b2
  b0 b1 w x 2
  b1 b2 r x 3
"""


class TestUpdateEvents:
    """The search's update checks: each case hits an inconsistent or over-budget graph without its check."""

    @pytest.mark.parametrize(
        "rmws,status,counters",
        [
            (0, ReachStatus.UNREACHABLE_WITHIN_BOUND, (1, 0)),
            (1, ReachStatus.UNREACHABLE_WITHIN_BOUND, (2, 0)),
            (2, ReachStatus.REACHABLE, (3, 1)),
        ],
    )
    def test_rmw_budget(self, rmws, status, counters):
        v = bounded_reach(parse_program(corpus.UPDATE_CHAIN), cfg(1, rmws=rmws))
        assert (v.status, (v.explored.visited, v.explored.prunes)) == (status, counters)

    def test_two_updates_of_one_write(self):
        v = bounded_reach(parse_program(corpus.UPDATE_RACE), cfg(2, rmws=2))
        assert (v.status, (v.explored.visited, v.explored.prunes)) == (ReachStatus.UNREACHABLE_WITHIN_BOUND, (3, 4))

    def test_write_never_wedges_an_update(self):
        v = bounded_reach(parse_program(corpus.UPDATE_WEDGE), cfg(2, rmws=2))
        assert (v.status, (v.explored.visited, v.explored.prunes)) == (ReachStatus.REACHABLE, (3, 1))
        assert v.witness.graph.mo["x"] == (0, 1, 2)

    def test_write_right_after_an_update(self):
        # b's x=2 goes between a's update and a's later x=3 (b reads x=3 after it); with two contexts a
        # must run first, and placing b's write first would take a third
        v = bounded_reach(parse_program(AFTER_AN_UPDATE), cfg(2, rmws=1))
        assert (v.status, (v.explored.visited, v.explored.prunes)) == (ReachStatus.REACHABLE, (5, 2))
        assert v.witness.graph.mo["x"] == (0, 1, 3, 2)


#: t's read of x=1 after its own x=2 needs x=2 mo-before x=1, which write coherence forbids
OWN_WRITES_IN_MO = """
locs x
vals 0 1 2
thread t init q0 final q3
  q0 q1 w x 1
  q1 q2 w x 2
  q2 q3 r x 1
"""

#: litmus and update-event programs for the oracle comparison
ORACLE_PROGRAMS = {
    "mp": corpus.MP,
    "mp-forbidden": corpus.MP_FORBIDDEN,
    "sb": corpus.SB,
    "after-an-update": AFTER_AN_UPDATE,
    "update-chain": corpus.UPDATE_CHAIN,
    "update-race": corpus.UPDATE_RACE,
    "update-wedge": corpus.UPDATE_WEDGE,
    "own-writes-in-mo": OWN_WRITES_IN_MO,
}
#: (contexts, rmws, cap); after-an-update reaches from (2, 1, 4) on, once b's write may follow a's update
ORACLE_BUDGETS = [(1, 0, 4), (2, 0, 4), (1, 2, 3), (2, 1, 4), (2, 1, 5), (3, 2, 6)]


def agrees(prog, budget):
    """``bounded_reach`` at the cap reaches exactly when ``view_reach`` does."""
    assert bounded_reach(prog, cfg(*budget)).reachable == view_reach(prog, *budget)


class TestViewOracle:
    """The search at its cap against ``view_reach``, the RA view semantics explored breadth-first."""

    @pytest.mark.parametrize("budget", ORACLE_BUDGETS, ids=lambda b: ",".join(map(str, b)))
    @pytest.mark.parametrize("name", ORACLE_PROGRAMS)
    def test_litmus_and_updates(self, name, budget):
        agrees(parse_program(ORACLE_PROGRAMS[name]), budget)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([0.0, 0.4]),
        st.tuples(st.integers(1, 4), st.integers(0, 2), st.integers(0, 6)),
    )
    def test_random_programs(self, seed, rmw_prob, budget):
        agrees(corpus.random_program(seed, rmw_prob=rmw_prob), budget)


#: program family -> programs: criterion 2's random programs, criterion 4's
#: update corpus and the loop programs
MEMO_CASES = {
    "random": [corpus.random_program(seed) for seed in range(50)],
    "rmw": rmw_corpus(),
    "loops": [parse_program(text) for text in LOOPS],
}


class TestMemo:
    """The visited-state memo against the RA view semantics and the naive enumerator.

    Every hit the search returns has passed ``hit_trace``'s checks
    (consistent, replays to the target, within budget), which raise otherwise.
    """

    @pytest.mark.parametrize("family", MEMO_CASES)
    def test_agrees_with_view_oracle(self, family):
        # a search that closes without truncation decides at any cap, so the reference misses past the cap too
        for prog in MEMO_CASES[family]:
            for contexts, rmws, cap in MEMO_BUDGETS:
                v = bounded_reach(prog, cfg(contexts, rmws, cap))
                assert v.reachable == view_reach(prog, contexts, rmws, cap)
                if v.status is ReachStatus.UNREACHABLE_WITHIN_BOUND:
                    assert not view_reach(prog, contexts, rmws, cap + 3)

    @pytest.mark.parametrize("family", MEMO_CASES)
    def test_agrees_with_naive(self, family):
        for prog in MEMO_CASES[family]:
            assert bounded_reach(prog, cfg(4, 4, 4)).reachable == naive_reach(prog, 4).reachable

    @pytest.mark.parametrize("part", corpus.MEMO_PARTS)
    def test_every_part_needed(self, part):
        text, contexts, rmws = corpus.MEMO_PARTS[part]
        assert bounded_reach(parse_program(text), cfg(contexts, rmws, cap=6)).reachable

    def test_records_form_an_antichain(self, monkeypatch):
        # a record that a new one covers is dropped; keeping it would change only memory, since covering is
        # transitive and so the new record covers whatever the dropped one would, hence the direct check
        def covers(a, b):
            return a[3] <= b[3] and a[2] <= b[2] and a[1] + (a[0] != b[0]) <= b[1]

        def spy(memo, key, rec):
            before = len(memo.get(key, ()))
            skip = covered(memo, key, rec)
            recs = memo[key]
            dropped.append(before + (not skip) - len(recs))
            assert not any(covers(a, b) for i, a in enumerate(recs) for j, b in enumerate(recs) if i != j), recs
            return skip

        covered, dropped = decider._covered, []
        monkeypatch.setattr(decider, "_covered", spy)
        bounded_reach(parse_program(MP_LOOP), cfg(2, cap=13))
        assert sum(dropped) > 0


class TestPinnedMemoCounters:
    """Memo counters depend on branch order, so only seed 0 pins them."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_mp_loop_cap_13(self, seed):
        v = bounded_reach(parse_program(MP_LOOP), cfg(2, cap=13, seed=seed))
        assert v.status is ReachStatus.INCONCLUSIVE
        if seed == 0:
            assert (v.explored.visited, v.explored.prunes) == (519, 701)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_wrc_loop_cap_20(self, seed):
        v = bounded_reach(parse_program(WRC_LOOP), cfg(3, cap=20, seed=seed))
        assert v.status is ReachStatus.INCONCLUSIVE
        if seed == 0:
            assert (v.explored.visited, v.explored.prunes) == (1617, 9657)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_corr_loop_cap_60(self, seed):
        v = bounded_reach(parse_program(CORR_LOOP), cfg(2, cap=60, seed=seed))
        assert v.status is ReachStatus.INCONCLUSIVE
        if seed == 0:
            assert (v.explored.visited, v.explored.prunes) == (2114, 3562)

    # the loop-search bench ops not pinned above: (program, contexts, cap) -> seed-0 counters
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "text,contexts,cap,counters",
        [(CORR_LOOP, 2, 18, (245, 307)), (MP_LOOP, 3, 10, (258, 428)), (WRC_LOOP, 3, 16, (837, 3930))],
        ids=["corr_loop_2_18", "mp_loop_3_10", "wrc_loop_3_16"],
    )
    def test_loop_search_ops(self, text, contexts, cap, counters, seed):
        v = bounded_reach(parse_program(text), cfg(contexts, cap=cap, seed=seed))
        assert v.status is ReachStatus.INCONCLUSIVE
        if seed == 0:
            assert (v.explored.visited, v.explored.prunes) == counters

    def test_gadget_cap_4(self):
        # keys are built two or more events below the cap, where the gadget repeats no state
        gadget = compile_pcp(parse_pcp("pair a : aa\npair ab : b\n"))
        v = bounded_reach(gadget, cfg(12, cap=4))
        assert v.status is ReachStatus.INCONCLUSIVE
        assert v.explored.to_json() == {"visited": 46503, "prunes": 20, "maxEvents": 4}


def _runs(v):
    return [(r.tid, r.events) for r in v.witness.runs]


def _dump(v):
    """A verdict's status, counters and witness as the bytes ``reach --json`` prints them."""
    return json.dumps(
        {"status": v.status.value, "stats": v.explored.to_json(), "witness": v.witness and trace_to_json(v.witness)},
        sort_keys=True,
    )


class TestPinnedSeededMemo:
    """Seeded memo searches: counters and witnesses follow the shuffle order and the memo's records."""

    @pytest.mark.parametrize(
        "seed,counters,runs",
        [
            (3, (5, 0), [("writer", (2, 3)), ("reader", (4, 5))]),
            (7, (5, 0), [("writer", (2, 3)), ("reader", (4, 5))]),
        ],
    )
    def test_mp(self, seed, counters, runs):
        v = bounded_reach(parse_program(corpus.MP), cfg(2, seed=seed))
        assert v.status is ReachStatus.REACHABLE
        assert ((v.explored.visited, v.explored.prunes), _runs(v)) == (counters, runs)

    @pytest.mark.parametrize(
        "seed,counters,runs",
        [
            (3, (5, 0), [("right", (2, 3)), ("left", (4, 5))]),
            (7, (6, 0), [("left", (2,)), ("right", (3, 4)), ("left", (5,))]),
        ],
    )
    def test_sb(self, seed, counters, runs):
        v = bounded_reach(corpus.sb(), cfg(3, seed=seed))
        assert v.status is ReachStatus.REACHABLE
        assert ((v.explored.visited, v.explored.prunes), _runs(v)) == (counters, runs)

    @pytest.mark.parametrize(
        "seed,counters,runs",
        [
            (3, (43, 15), [("t1", (1,)), ("t2", (2,))]),
            (7, (27, 10), [("t1", (1,)), ("t2", (2,))]),
        ],
    )
    def test_random_19(self, seed, counters, runs):
        v = bounded_reach(corpus.random_program(19), cfg(3, 1, 6, seed=seed))
        assert v.status is ReachStatus.REACHABLE
        assert ((v.explored.visited, v.explored.prunes), _runs(v)) == (counters, runs)

    @pytest.mark.parametrize("seed,counters", [(3, (390, 394)), (7, (333, 336))])
    def test_mp_loop_cap_13(self, seed, counters):
        v = bounded_reach(parse_program(MP_LOOP), cfg(2, cap=13, seed=seed))
        assert v.status is ReachStatus.INCONCLUSIVE
        assert (v.explored.visited, v.explored.prunes) == counters

    def test_gadget_cap_4(self):
        gadget = compile_pcp(parse_pcp("pair a : aa\npair ab : b\n"))
        v = bounded_reach(gadget, cfg(12, cap=4, seed=7))
        assert v.status is ReachStatus.INCONCLUSIVE
        assert v.explored.to_json() == {"visited": 46503, "prunes": 20, "maxEvents": 4}


class TestNodeBudget:
    """``max_nodes`` stops the search as inconclusive once that many nodes were entered, covered ones included."""

    def test_trips_a_closing_search(self):
        assert bounded_reach(corpus.corr(), cfg(3, cap=6)).status is ReachStatus.UNREACHABLE_WITHIN_BOUND
        v = bounded_reach(corpus.corr(), cfg(3, cap=6, max_nodes=1))
        assert v.status is ReachStatus.INCONCLUSIVE
        assert v.explored.visited == 1

    def test_trips_at_the_small_model_bound(self):
        v = bounded_reach(corpus.mp_forbidden(), cfg(1, cap=10**9, max_nodes=2))
        assert (v.status, v.explored.visited) == (ReachStatus.INCONCLUSIVE, 2)

    @pytest.mark.parametrize(
        "prog,budget,covered",
        [
            (corpus.corr(), (3, 0, 6), 4),
            (corpus.sb(), (3, 0, None), 0),
            (parse_program(MP_LOOP), (2, 0, 13), 190),
            (corpus.random_program(19), (3, 1, 6), 53),
        ],
        ids=["corr", "sb", "mp-loop", "random-19"],
    )
    def test_least_untripped_budget_changes_nothing(self, prog, budget, covered):
        # the least budget that changes nothing, found by bisection, lies the covered nodes above visited;
        # one more changes nothing either, and one less trips
        def run(max_nodes):
            v = bounded_reach(prog, cfg(*budget, max_nodes=max_nodes))
            return v.status, v.explored, v.witness and v.witness.runs

        want = run(None)
        visited = want[1].visited
        lo, hi = 0, visited  # run(lo) trips; run(hi) may not
        while run(hi) != want:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if run(mid) == want else (mid, hi)
        assert hi - visited == covered
        assert run(hi + 1) == want
        tripped = run(hi - 1)
        assert tripped[0] is ReachStatus.INCONCLUSIVE and tripped != want

    def test_depth_not_limited_by_recursion(self):
        # an uncapped dive into the writer's loop with one context, far below the recursion limit: in the writer's
        # run the reader keeps its init view, so the cut stays at init, the row of x grows and no key repeats
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            v = bounded_reach(parse_program(MP_LOOP), cfg(1, cap=None, max_nodes=400))
        finally:
            sys.setrecursionlimit(limit)
        assert v.status is ReachStatus.INCONCLUSIVE
        assert (v.explored.visited, v.explored.max_events) == (399, 398)


#: with one update allowed, either thread's update spends it, which takes the
#: other thread's update out of a frame's count one event below the cap
SPENDS_THE_BUDGET = """
locs x y z
vals 0 1
init x=0 y=0 z=0
thread a init a0 final a3
  a0 a1 w z 1
  a1 a1 w z 1
  a1 a2 rmw x 0 1
  a2 a3 w z 0
thread b init b0 final b3
  b0 b1 rmw y 0 1
  b0 b0 w y 1
  b1 b2 w y 0
  b2 b3 w y 1
"""


def rebuilt_reach(settle_call, **names):
    """``bounded_reach`` rebuilt from ``decider``'s source with ``settle_call`` for its call of ``settle``.

    ``names`` join the copy's module globals, so ``settle_call`` may use them.
    """
    text = Path(decider.__file__).read_text()
    assert text.count("settle(table, rec))") == 1
    ns = {"__name__": decider.__name__, "__package__": decider.__package__, **names}
    exec(compile(text.replace("settle(table, rec))", f"{settle_call})"), decider.__file__, "exec"), ns)
    # it returns the library's own result types, so that its results compare equal to the library's
    ns.update({name: getattr(decider, name) for name in ("ReachStatus", "ReachVerdict", "SearchStats")})
    return ns["bounded_reach"]


@functools.cache
def unsettled_reach():
    """``bounded_reach`` with ``settle`` never called, so every capped child is placed."""
    return rebuilt_reach("False")


def search(settled):
    """The search, or its copy that settles no frame."""
    return bounded_reach if settled else unsettled_reach()


class TestSettledFrames:
    """The gadget at cap 4, where most children on the cap are counted in their parent without being placed.

    A frame starts from the total its grandparent tabulated two events below the cap, and recounts only the
    threads the frame node's own event can touch, or only its own thread once no run is left to open.  Each
    pin holds for the search and for its copy that places every child (``settled`` False).
    """

    gadget = compile_pcp(parse_pcp("pair a : aa\npair ab : b\n"))

    def test_settled_and_unsettled_paths_agree(self):
        # settling changes how children on the cap are counted, never what the memo keys (keys stop two events
        # below the cap), so status, counters and witness all agree; under a seed too, since a frame one event
        # below the cap is never shuffled, so settling it leaves the generator's draws as they were
        progs = [corpus.random_program(seed) for seed in range(80)]
        progs += [corpus.random_program(seed, rmw_prob=0.4) for seed in range(80)]
        progs += [parse_program(text) for text in LOOPS] + corpus.loopy_rmw_programs()
        checked = 0
        for prog in progs:
            for contexts, rmws, cap in MEMO_BUDGETS:
                settled, placed = (search(s)(prog, cfg(contexts, rmws, cap)) for s in (True, False))
                assert (placed.status, placed.explored, placed.witness and _runs(placed)) == (
                    settled.status,
                    settled.explored,
                    settled.witness and _runs(settled),
                ), (prog, contexts, rmws, cap)
                settled, placed = (_dump(search(s)(prog, cfg(contexts, rmws, cap, seed=7))) for s in (True, False))
                assert placed == settled, (prog, contexts, rmws, cap)
                checked += 1
        assert checked == 660

    def test_seeded_search_settles(self):
        # the shuffle leaves the frames one event below the cap alone, so a seeded search settles them too
        settled = []

        def tally(done):
            settled.append(done)
            return done

        v = rebuilt_reach("tally(settle(table, rec))", tally=tally)(self.gadget, cfg(12, cap=4, seed=7))
        assert v.explored.to_json() == {"visited": 46503, "prunes": 20, "maxEvents": 4}
        assert any(settled)

    @pytest.mark.parametrize("settled", [False, True])
    @pytest.mark.parametrize(
        "contexts,cap,counters",
        [(3, 3, (32, 27)), (2, 4, (49, 52)), (3, 4, (72, 89)), (2, 5, (77, 105)), (3, 5, (120, 196))],
    )
    def test_update_that_spends_the_last_budget(self, contexts, cap, counters, settled):
        v = search(settled)(parse_program(SPENDS_THE_BUDGET), cfg(contexts, 1, cap))
        assert (v.status, v.explored.visited, v.explored.prunes) == (ReachStatus.INCONCLUSIVE, *counters)

    @pytest.mark.parametrize("settled", [False, True])
    @pytest.mark.parametrize("contexts,counters", [(2, (1055, 16)), (3, (11801, 20))])
    def test_closing_context_budget(self, contexts, counters, settled):
        # a child on the frame's level often opens the last run, so fewer threads may move than at its parent
        v = search(settled)(self.gadget, cfg(contexts, cap=4))
        assert (v.status, v.explored.visited, v.explored.prunes) == (ReachStatus.INCONCLUSIVE, *counters)

    @pytest.mark.parametrize("settled", [False, True])
    @pytest.mark.parametrize("seed,prunes", [(0, (2, 2, 4, 20)), (7, (0, 0, 12, 20))])
    def test_node_budget_trips_on_the_same_child(self, seed, prunes, settled):
        for max_nodes, pruned in zip((500, 1001, 23456, 46502), prunes):
            v = search(settled)(self.gadget, cfg(12, cap=4, seed=seed, max_nodes=max_nodes))
            assert (v.status, v.explored.visited, v.explored.prunes) == (ReachStatus.INCONCLUSIVE, max_nodes, pruned)

    @pytest.mark.parametrize("settled", [False, True])
    def test_child_that_finishes_the_last_thread_is_placed(self, settled):
        # w x 1 first leads to q4, whose loop truncates at the cap; after w x 2 only t is unfinished,
        # and the child on the cap that finishes it is the hit
        prog = parse_program(
            "locs x\nvals 0 1 2\ninit x=0\nthread t init q0 final q2\n"
            "  q0 q1 w x 1\n  q1 q4 w x 1\n  q4 q4 w x 1\n  q0 q3 w x 2\n  q3 q2 w x 1\n"
        )
        v = search(settled)(prog, cfg(1, cap=2))
        assert v.status is ReachStatus.REACHABLE
        assert v.explored.to_json() == {"visited": 5, "prunes": 2, "maxEvents": 2}


#: program family -> [(program, max_events)]: random programs with and
#: without updates, and the update-event loop programs
TRUSTED_CASES = {
    "random": [(corpus.random_program(seed), 4) for seed in range(40)],
    "random-rmw": [(corpus.random_program(seed, rmw_prob=0.4), 4) for seed in range(40)],
    "loopy-rmw": [(prog, 5) for prog in corpus.loopy_rmw_programs()],
}


class TestTrustedConstruction:
    """The enumerator builds graphs through build_graph's trusted path, sharing hb closures across mo."""

    @pytest.mark.parametrize("family", TRUSTED_CASES)
    def test_equals_build_graph_on_own_rows(self, family):
        for prog, n in TRUSTED_CASES[family]:
            for g in enumerate_graphs(prog, n):
                rebuilt = build_graph(list(g.events.items()), g.rf, g.mo)
                assert dump_graph_json(g) == dump_graph_json(rebuilt)
                assert list(g.events.items()) == list(rebuilt.events.items())
                assert list(g.po.items()) == list(rebuilt.po.items())
                assert list(g.mo.items()) == list(rebuilt.mo.items())
                assert g.rf == rebuilt.rf

    @pytest.mark.parametrize("family", TRUSTED_CASES)
    def test_hb_matches_oracle(self, family):
        # a closure shared across reads-from choices would answer for the wrong rf
        for prog, n in TRUSTED_CASES[family]:
            for g in enumerate_graphs(prog, n):
                pairs = {(a, b) for a in g.events for b in g.events if g.hb(a, b)}
                assert pairs == hb_pairs_oracle(g)

    @pytest.mark.parametrize("i,counts", [(0, [1, 2, 3, 4, 5, 6]), (1, [1, 2, 4, 8, 16, 32])])
    def test_loopy_rmw_counts_pinned(self, i, counts):
        prog = corpus.loopy_rmw_programs()[i]
        assert [sum(1 for _ in enumerate_graphs(prog, n)) for n in range(6)] == counts

    @pytest.mark.parametrize(
        "i,built", [(0, [1, 2, 6, 30, 246, 3486]), (1, [1, 2, 7, 87, 2795])]
    )
    def test_every_candidate_built_and_checked_once(self, monkeypatch, i, built):
        # nothing is pruned: one build_graph and one check_ra call per candidate
        import rareach.decider as decider

        calls = {"build_graph": 0, "check_ra": 0}

        def counted(name):
            fn = getattr(decider, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(decider, name, counted(name))
        prog = corpus.loopy_rmw_programs()[i]
        for n, want in enumerate(built):
            calls.update(build_graph=0, check_ra=0)
            sum(1 for _ in enumerate_graphs(prog, n))
            assert calls == {"build_graph": want, "check_ra": want}

    @pytest.mark.parametrize(
        "cases",
        [
            [(prog, n) for prog, n in zip(corpus.loopy_rmw_programs(), (5, 4))],
            [(corpus.random_program(seed, rmw_prob=0.4), 4) for seed in range(12)],
        ],
        ids=["loopy-rmw", "random-rmw"],
    )
    def test_least_witness_on_every_candidate(self, monkeypatch, cases):
        # every candidate, consistent or not, gets the oracle's verdict down to the witness
        check, axioms = decider.check_ra, set()

        def compared(graph):
            v = check(graph)
            got = (v.consistent, v.axiom and v.axiom.value, v.witness)
            assert got == least_violation_oracle(graph)
            axioms.add(got[1])
            return v

        monkeypatch.setattr(decider, "check_ra", compared)
        for prog, n in cases:
            sum(1 for _ in enumerate_graphs(prog, n))
        assert axioms == {None, "irr-hb", "write-coherence", "read-coherence", "atomicity"}

    @pytest.mark.parametrize(
        "cases", [*TRUSTED_CASES.values(), [(prog, 4) for prog in rmw_corpus()]], ids=[*TRUSTED_CASES, "criterion-4"]
    )
    def test_check_ra_agrees_with_check_axiom(self, monkeypatch, cases):
        # verdicts are shared between candidates, so they are compared by value
        check, seen = decider.check_ra, set()

        def compared(graph):
            v = check(graph)
            each = [check_axiom(graph, a) for a in AXIOM_ORDER]
            assert all(u.consistent or u.axiom is a for u, a in zip(each, AXIOM_ORDER))
            first = next((u for u in each if not u.consistent), _CONSISTENT)
            assert (v.consistent, v.axiom, v.witness) == (first.consistent, first.axiom, first.witness)
            seen.add(v.axiom)
            return v

        monkeypatch.setattr(decider, "check_ra", compared)
        for prog, n in cases:
            sum(1 for _ in enumerate_graphs(prog, n))
        assert {None, Axiom.IRR_HB, Axiom.WRITE_COHERENCE} <= seen

    def test_like_requires_the_same_rows(self):
        g = next(enumerate_graphs(corpus.loopy_rmw_programs()[1], 2))
        assert dump_graph_json(build_graph(g.events, g.rf, g.mo, like=g)) == dump_graph_json(g)
        with pytest.raises(GraphError):
            build_graph(dict(g.events), g.rf, g.mo, like=g)
        with pytest.raises(GraphError):
            build_graph(g.events, dict(g.rf), g.mo, like=g)
