"""Reduction: latest writes, summaries, collapsing, and the length bound."""

import random
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from rareach.consistency import check_ra
from rareach.decider import enumerate_graphs
from rareach.errors import NotCollapsible, UnknownEvent, UnknownThread
from rareach.graph import build_graph
from rareach.model import INIT_TID, parse_program, read, rmw, write
from rareach.reduction import (
    CollapsiblePair,
    Summary,
    collapsible,
    find_collapsible,
    reduce,
    reduce_fixpoint,
    small_model_bound,
    small_model_bound_formula,
    summary,
    summary_space,
    summary_space_formula,
)
from rareach.trace import Run, canonical_trace, counts, make_trace

from tests import corpus
from tests.corpus import dump_graph_json, dump_trace_json
from tests.oracle import bound_oracle, collapse_oracle, collapsible_oracle, summary_oracle
from tests.test_acceptance import collapsible_pairs, graph_traces, rmw_corpus

TWIN_PLUS_SPY = """
locs x
vals 0 1
init x=0
thread t init q0 final q0
  q0 q1 w x 1
  q1 q0 r x 1
thread u init u0 final u1
  u0 u1 r x 1
"""

RMW_LOOP = """
locs x
vals 0 1
init x=0
thread t init q0 final q0
  q0 q1 rmw x 0 1
  q1 q0 r x 1
  q0 q1 w x 1
"""


def spy_trace(spied_write):
    """Twin-write run plus a second thread reading ``spied_write``."""
    events = [
        ("init.x", write(INIT_TID, "x", "0")),
        ("e1", write("t", "x", "1")),
        ("e2", read("t", "x", "1")),
        ("e3", write("t", "x", "1")),
        ("e4", read("t", "x", "1")),
        ("f1", read("u", "x", "1")),
    ]
    g = build_graph(
        events,
        {"e2": "e1", "e4": "e3", "f1": spied_write},
        {"x": ["init.x", "e1", "e3"]},
    )
    return make_trace(g, [Run("t", ("e1", "e2", "e3", "e4")), Run("u", ("f1",))])


def rmw_loop_trace():
    events = [
        ("init.x", write(INIT_TID, "x", "0")),
        ("e1", rmw("t", "x", "0", "1")),
        ("e2", read("t", "x", "1")),
        ("e3", write("t", "x", "1")),
        ("e4", read("t", "x", "1")),
    ]
    g = build_graph(
        events,
        {"e1": "init.x", "e2": "e1", "e4": "e3"},
        {"x": ["init.x", "e1", "e3"]},
    )
    return canonical_trace(g)


class TestSummary:
    def test_twin_write_positions(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        s1 = summary(tr, prog, "e1")
        assert s1 == Summary(frozenset({"q1"}), (("x", "1"),), frozenset())
        assert summary(tr, prog, "e3") == s1
        assert summary(tr, prog, "e2").states == frozenset({"q0"})

    def test_foreign_read_is_flagged(self):
        # t writes 2, then reads 1 from the other thread: its own latest
        # write no longer covers the location
        prog = parse_program(
            """
            locs x
            vals 0 1 2
            thread w init q0 final q1
              q0 q1 w x 1
            thread t init q0 final q2
              q0 q1 w x 2
              q1 q2 r x 1
            """
        )
        events = [
            ("init.x", write(INIT_TID, "x", "0")),
            ("a1", write("w", "x", "1")),
            ("b1", write("t", "x", "2")),
            ("b2", read("t", "x", "1")),
        ]
        g = build_graph(
            events,
            {"b2": "a1"},
            {"x": ["init.x", "b1", "a1"]},
        )
        assert check_ra(g).consistent
        tr = make_trace(g, [Run("w", ("a1",)), Run("t", ("b1", "b2"))])
        s = summary(tr, prog, "b2")
        assert s.foreign_reads == frozenset({"x"})
        vals = dict(s.last_write_vals)
        assert vals["x"] == "2"
        with pytest.raises(KeyError):
            vals["y"]

    def test_unknown_thread(self, mp_program):
        tr = corpus.twin_write_trace(2)
        with pytest.raises(UnknownThread):
            summary(tr, mp_program, "e1")


class TestCollapsible:
    def test_frozen_twin_pair(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        assert find_collapsible(tr, prog) == CollapsiblePair("e1", "e3")

    def test_order_and_run_requirements(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        assert not collapsible(tr, prog, "e3", "e1")
        assert not collapsible(tr, prog, "e1", "e1")
        assert not collapsible(tr, prog, "e1", "e2")  # summaries differ

    @pytest.mark.parametrize("eid", ["init.x", "e9"])
    def test_event_in_no_run_raises(self, eid):
        # the init write is in the graph but in no run; e9 is in neither
        tr = corpus.twin_write_trace(2)
        with pytest.raises(UnknownEvent, match=f"event '{eid}' is not in any run"):
            collapsible(tr, corpus.twin_write_loop(), "e1", eid)

    def test_split_runs_block_pairs(self):
        g = corpus.twin_write_trace(2).graph
        tr = make_trace(g, [Run("t", ("e1", "e2")), Run("t", ("e3", "e4"))])
        prog = corpus.twin_write_loop()
        assert not collapsible(tr, prog, "e1", "e3")

    def test_outside_observation_blocks(self):
        tr = spy_trace("e3")
        prog = parse_program(TWIN_PLUS_SPY)
        assert not collapsible(tr, prog, "e1", "e3")
        assert find_collapsible(tr, prog) is None

    def test_hb_distinguishable_latest_writes_block(self):
        # the spy reads the first write instead: e1 happens-before the spy
        # read but e3 does not, so the two positions are told apart
        tr = spy_trace("e1")
        prog = parse_program(TWIN_PLUS_SPY)
        assert check_ra(tr.graph).consistent
        assert not collapsible(tr, prog, "e1", "e3")
        assert find_collapsible(tr, prog) is None

    def test_rmw_latest_write_blocks_in_rmw_mode(self):
        tr = rmw_loop_trace()
        prog = parse_program(RMW_LOOP)
        assert not collapsible(tr, prog, "e1", "e3")  # lw(e1) is absent plainly
        assert not collapsible(tr, prog, "e1", "e3", rmw_mode=True)

    def test_rmw_mode_on_plain_trace(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        assert collapsible(tr, prog, "e1", "e3", rmw_mode=True)


@lru_cache(maxsize=None)
def corpus_graphs(seed, rmw_prob):
    prog = corpus.random_program(seed, rmw_prob=rmw_prob)
    return prog, list(islice(enumerate_graphs(prog, 5), 40))


def random_runs(graph, rng):
    """A random happens-before-respecting interleaving of the threads, cut into runs at random."""
    left = {t: list(graph.po[t]) for t in graph.tids()}
    placed = set(graph.init_events())
    runs = []
    while any(left.values()):
        ready = [t for t, row in left.items() if row and (row[0] not in graph.rf or graph.rf[row[0]] in placed)]
        t = rng.choice(ready)
        e = left[t].pop(0)
        placed.add(e)
        if runs and runs[-1][0] == t and rng.random() < 0.7:
            runs[-1][1].append(e)
        else:
            runs.append((t, [e]))
    return make_trace(graph, [Run(t, tuple(es)) for t, es in runs])


def assert_matches_oracle(trace, prog, rmw_mode):
    """The sweep's summaries, pair tests and π-first pair agree with the per-pair definition."""
    for run in trace.runs:
        for e in run.events:
            s = summary(trace, prog, e, rmw_mode)
            assert (s.states, s.last_write_vals, s.foreign_reads) == summary_oracle(trace, prog, run.events, e, rmw_mode)
    pairs = [(a, b) for run in trace.runs for i, a in enumerate(run.events) for b in run.events[i + 1 :]]
    truth = [p for p in pairs if collapsible_oracle(trace, prog, *p, rmw_mode)]
    for a, b in pairs:
        assert collapsible(trace, prog, a, b, rmw_mode) == ((a, b) in truth), (a, b)
    found = find_collapsible(trace, prog, rmw_mode)
    assert (found and (found.first, found.second)) == (truth[0] if truth else None)


class TestCollapsibleOracle:
    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(0, 59), st.sampled_from([0.0, 0.3]), st.integers(0, 39), st.integers(0, 2**16), st.booleans()
    )
    @example(4, 0.3, 3, 0, False)  # the update at 2 is read by 3 after the pair (1, 2]
    def test_random_runs(self, seed, rmw_prob, pick, cut, rmw_mode):
        prog, graphs = corpus_graphs(seed, rmw_prob)
        if graphs:
            trace = random_runs(graphs[pick % len(graphs)], random.Random(cut))
            assert_matches_oracle(trace, prog, rmw_mode)

    @pytest.mark.parametrize("rmw_mode", [False, True])
    def test_hb_through_program_order(self, rmw_mode):
        # the spy reads z, written after the first latest write on x: only
        # the program-order path from a tells the two latest writes apart
        prog = parse_program(
            """
            locs x z
            vals 0 1
            thread t init q0 final q1
              q0 q1 w x 1
              q1 q1 w z 1
              q1 q1 w x 1
            thread u init u0 final u1
              u0 u1 r z 1
            """
        )
        g = build_graph(
            [
                ("init.x", write(INIT_TID, "x", "0")),
                ("init.z", write(INIT_TID, "z", "0")),
                ("a", write("t", "x", "1")),
                ("b", write("t", "z", "1")),
                ("c", write("t", "x", "1")),
                ("f", read("u", "z", "1")),
            ],
            {"f": "b"},
            {"x": ["init.x", "a", "c"], "z": ["init.z", "b"]},
        )
        tr = make_trace(g, [Run("t", ("a", "b", "c")), Run("u", ("f",))])
        assert summary(tr, prog, "b") == summary(tr, prog, "c")
        assert not collapsible_oracle(tr, prog, "b", "c", rmw_mode)
        assert_matches_oracle(tr, prog, rmw_mode)

    @pytest.mark.parametrize("rmw_mode", [False, True])
    def test_latest_write_clears_foreign_read(self, rmw_mode):
        prog = parse_program(
            """
            locs x
            vals 0 1
            thread t init q0 final q1
              q0 q1 w x 1
              q1 q1 r x 0
              q1 q1 w x 1
            thread u init u0 final u1
              u0 u1 w x 0
            """
        )
        g = build_graph(
            [
                ("init.x", write(INIT_TID, "x", "0")),
                ("g", write("u", "x", "0")),
                ("a", write("t", "x", "1")),
                ("b", read("t", "x", "0")),
                ("c", write("t", "x", "1")),
            ],
            {"b": "g"},
            {"x": ["init.x", "a", "g", "c"]},
        )
        tr = make_trace(g, [Run("u", ("g",)), Run("t", ("a", "b", "c"))])
        assert summary(tr, prog, "b").foreign_reads == frozenset({"x"})
        assert summary(tr, prog, "c").foreign_reads == frozenset()
        assert collapsible_oracle(tr, prog, "a", "c", rmw_mode)
        assert_matches_oracle(tr, prog, rmw_mode)

    @pytest.mark.parametrize("rmw_mode", [False, True])
    def test_criterion_3_corpus(self, rmw_mode):
        programs = [corpus.random_program(s) for s in range(12)] + corpus.loopy_programs() + [corpus.twin_write_loop()]
        traces = list(graph_traces(programs))
        traces += [(corpus.twin_write_loop(), corpus.twin_write_trace(r)) for r in (2, 3, 4)]
        for prog, trace in traces:
            assert_matches_oracle(trace, prog, rmw_mode)


class TestReduce:
    def test_frozen_twin_step(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        out = reduce(tr, prog, "e1", "e3")
        assert sorted(out.graph.events) == ["e1", "e4", "init.x"]
        assert out.graph.rf == {"e4": "e1"}
        assert list(out.graph.mo["x"]) == ["init.x", "e1"]
        assert out.runs == (Run("t", ("e1", "e4")),)
        assert check_ra(out.graph).consistent

    def test_visible_mo_transposition(self):
        # a foreign write sits between the two latest writes: after the swap
        # it ends up before the surviving one
        prog = parse_program(
            """
            locs x
            vals 0 1 2
            thread t init q0 final q0
              q0 q1 w x 1
              q1 q0 r x 1
            thread u init u0 final u1
              u0 u1 w x 2
            """
        )
        events = [
            ("init.x", write(INIT_TID, "x", "0")),
            ("e1", write("t", "x", "1")),
            ("e2", read("t", "x", "1")),
            ("e3", write("t", "x", "1")),
            ("e4", read("t", "x", "1")),
            ("u1", write("u", "x", "2")),
        ]
        g = build_graph(
            events,
            {"e2": "e1", "e4": "e3"},
            {"x": ["init.x", "e1", "u1", "e3"]},
        )
        tr = make_trace(g, [Run("t", ("e1", "e2", "e3", "e4")), Run("u", ("u1",))])
        assert find_collapsible(tr, prog) == CollapsiblePair("e1", "e3")
        out = reduce(tr, prog, "e1", "e3")
        assert list(out.graph.mo["x"]) == ["init.x", "u1", "e1"]
        assert out.graph.rf == {"e4": "e1"}
        assert check_ra(out.graph).consistent

    def test_not_collapsible_raises(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        with pytest.raises(NotCollapsible):
            reduce(tr, prog, "e1", "e2")

    def test_fixpoint_single_step(self):
        tr = corpus.twin_write_trace(2)
        prog = corpus.twin_write_loop()
        out, steps = reduce_fixpoint(tr, prog)
        assert steps == [CollapsiblePair("e1", "e3")]
        assert find_collapsible(out, prog) is None

    def test_fixpoint_long_run(self):
        tr = corpus.twin_write_trace(4)
        prog = corpus.twin_write_loop()
        out, steps = reduce_fixpoint(tr, prog)
        assert len(steps) == 3
        assert out.pi == ("e1", "e8")
        assert out.graph.rf == {"e8": "e1"}
        assert counts(out) == (1, 0)
        assert check_ra(out.graph).consistent


def assert_trusted(trace):
    """A collapse's rows are the ones build_graph makes from them, and make_trace accepts its runs."""
    g = trace.graph
    rebuilt = build_graph(list(g.events.items()), g.rf, g.mo)
    assert dump_graph_json(g) == dump_graph_json(rebuilt)
    for rows in ("events", "po", "rf", "mo"):
        assert list(getattr(g, rows).items()) == list(getattr(rebuilt, rows).items()), rows
    assert make_trace(g, trace.runs).runs == trace.runs


class TestCollapseOracle:
    """A collapse gives the bytes of the backward-scan collapse in ``collapse_oracle``."""

    @staticmethod
    def check_all(traces, rmw_mode):
        n_pairs = 0
        for prog, tr in traces:
            for first, second in collapsible_pairs(tr, prog, rmw_mode):
                want = dump_trace_json(collapse_oracle(tr, prog, first, second, rmw_mode))
                out = reduce(tr, prog, first, second, rmw_mode)
                assert dump_trace_json(out) == want, (first, second)
                assert_trusted(out)
                n_pairs += 1
        return n_pairs

    def test_criterion_3_corpus(self):
        programs = [corpus.random_program(s) for s in range(12)] + corpus.loopy_programs() + [corpus.twin_write_loop()]
        traces = list(graph_traces(programs))
        traces += [(corpus.twin_write_loop(), corpus.twin_write_trace(r)) for r in (2, 3, 4)]
        assert self.check_all(traces, rmw_mode=False) == 276

    def test_criterion_4_corpus(self):
        assert self.check_all(graph_traces(rmw_corpus()), rmw_mode=True) == 172

    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(0, 59), st.sampled_from([0.0, 0.3]), st.integers(0, 39), st.integers(0, 2**16), st.booleans()
    )
    @example(4, 0.3, 3, 0, False)  # the update at 2 is read by 3 after the pair (1, 2]
    def test_random_runs(self, seed, rmw_prob, pick, cut, rmw_mode):
        prog, graphs = corpus_graphs(seed, rmw_prob)
        tr = random_runs(graphs[pick % len(graphs)], random.Random(cut)) if graphs else None
        self.check_all([(prog, tr)] if tr else [], rmw_mode)

    @pytest.mark.parametrize("rmw_mode", [False, True])
    def test_foreign_read_keeps_mo(self, rmw_mode):
        # b and d both read x from another thread, so at either position the
        # local latest write does not cover x: collapsing (b, d] must not
        # transpose a and c, while collapsing (a, c] must
        prog = parse_program(
            """
            locs x
            vals 0 1 2
            thread t init q0 final q0
              q0 q1 w x 1
              q1 q0 r x 0
            thread u init u0 final u1
              u0 u1 w x 2
            thread v init v0 final v1
              v0 v1 w x 0
            thread w init w0 final w1
              w0 w1 w x 0
            """
        )
        g = build_graph(
            [
                ("init.x", write(INIT_TID, "x", "0")),
                ("y", write("u", "x", "2")),
                ("g", write("v", "x", "0")),
                ("h", write("w", "x", "0")),
                ("a", write("t", "x", "1")),
                ("b", read("t", "x", "0")),
                ("c", write("t", "x", "1")),
                ("d", read("t", "x", "0")),
            ],
            {"b": "g", "d": "h"},
            {"x": ["init.x", "a", "y", "g", "c", "h"]},
        )
        assert check_ra(g).consistent
        tr = make_trace(g, [Run("u", ("y",)), Run("v", ("g",)), Run("w", ("h",)), Run("t", ("a", "b", "c", "d"))])
        assert self.check_all([(prog, tr)], rmw_mode) == 2
        assert list(reduce(tr, prog, "b", "d", rmw_mode).graph.mo["x"]) == ["init.x", "a", "y", "g", "h"]
        assert list(reduce(tr, prog, "a", "c", rmw_mode).graph.mo["x"]) == ["init.x", "y", "g", "a", "h"]


class TestBounds:
    def test_summary_space(self):
        assert summary_space_formula(3, 2, 1) == 48
        prog = corpus.twin_write_loop()
        assert summary_space(prog) == 24

    def test_worked_example(self):
        # S=8, one location, two contexts, no update budget:
        # g(2) = 8, g(1) = 8 + 9*(2*8) = 152, total 160
        assert small_model_bound_formula(8, 1, 2, 0) == 160

    @pytest.mark.parametrize(
        "s,n_locs,contexts,rmws",
        [
            (8, 1, 2, 0),
            (1, 1, 1, 0),
            (2, 1, 2, 0),
            (2, 2, 2, 1),
            (1, 1, 3, 0),
            (3, 2, 3, 2),
            (5, 0, 2, 0),
            (4, 3, 1, 7),
            (6, 2, 4, 1),
            (288, 2, 2, 0),
            (288, 2, 3, 2),
            (10, 4, 5, 3),
        ],
    )
    def test_formula_matches_oracle(self, s, n_locs, contexts, rmws):
        assert small_model_bound_formula(s, n_locs, contexts, rmws) == bound_oracle(
            s, n_locs, contexts, rmws
        )

    @given(
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_formula_matches_oracle_random(self, s, n_locs, contexts, rmws):
        assert small_model_bound_formula(s, n_locs, contexts, rmws) == bound_oracle(
            s, n_locs, contexts, rmws
        )

    @given(
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(0, 10**6),
    )
    def test_stop_above_keeps_the_comparison(self, s, n_locs, contexts, rmws, cap):
        exact = bound_oracle(s, n_locs, contexts, rmws)
        stopped = small_model_bound_formula(s, n_locs, contexts, rmws, cap)
        assert (cap < stopped) == (cap < exact)
        assert stopped == exact or cap < stopped <= exact

    def test_stop_above_at_small_caps(self):
        # the property above on a fixed grid: every cap below 64, and the caps next to the bound
        for s, n_locs, contexts, rmws in product(range(1, 7), range(4), range(1, 7), range(4)):
            exact = small_model_bound_formula(s, n_locs, contexts, rmws)
            for cap in (*range(64), exact - 1, exact):
                stopped = small_model_bound_formula(s, n_locs, contexts, rmws, cap)
                assert stopped == exact or cap < stopped <= exact, (s, n_locs, contexts, rmws, cap)

    def test_closed_form_matches_oracle(self):
        for s, n_locs, rmws, contexts in product((1, 5, 128, 250), (1, 2, 3), (0, 1, 4), range(1, 30)):
            assert small_model_bound_formula(s, n_locs, contexts, rmws) == bound_oracle(s, n_locs, contexts, rmws)

    def test_stop_above_ends_early(self):
        # the exact bound at a million contexts has millions of digits
        assert small_model_bound_formula(288, 2, 10**6, 0, 3) == 4

    def test_whole_program_bound(self, mp_program):
        assert small_model_bound(mp_program, 2, 0) == 250272

    def test_rejects_zero_contexts(self):
        with pytest.raises(ValueError):
            small_model_bound_formula(4, 1, 0, 0)
