"""Traces: run partitions, budgets, canonical linearization, JSON."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from rareach.decider import enumerate_graphs
from rareach.errors import (
    DifferentRuns,
    NotHbExtension,
    NotPartition,
    RunNotContiguous,
    RunThreadMixed,
    UnknownEvent,
    WrongOrder,
)
from rareach.graph import Event, build_graph
from rareach.model import read, write
from rareach.trace import (
    ContextBudget,
    Run,
    canonical_trace,
    counts,
    dump_trace_json,
    load_trace_json,
    make_trace,
    range_in_run,
    trace_from_json,
    trace_to_json,
)

from tests import corpus
from tests.oracle import hb_pairs_oracle


@pytest.fixture()
def mp_g():
    events = [
        Event(0, write("init", "x", "0")),
        Event(1, write("init", "y", "0")),
        Event(2, write("w", "x", "1")),
        Event(3, write("w", "y", "1")),
        Event(4, read("r", "y", "1")),
        Event(5, read("r", "x", "1")),
    ]
    return build_graph(
        events, {"w": [2, 3], "r": [4, 5]}, {4: 3, 5: 2}, {"x": [0, 2], "y": [1, 3]}
    )


class TestMakeTrace:
    def test_valid_partition(self, mp_g):
        tr = make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4, 5))])
        assert tr.pi == (2, 3, 4, 5)

    def test_rejects_hb_reversal(self, mp_g):
        # reader first would place reads before the writes they observe
        with pytest.raises(NotHbExtension):
            make_trace(mp_g, [Run("r", (4, 5)), Run("w", (2, 3))])

    def test_rejects_partial_cover(self, mp_g):
        with pytest.raises(NotPartition):
            make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4,))])

    def test_rejects_duplicates(self, mp_g):
        with pytest.raises(NotPartition):
            make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4, 5)), Run("w", (2, 3))])

    def test_rejects_gap_inside_run(self):
        g = corpus.twin_write_trace(2).graph
        with pytest.raises(RunNotContiguous):
            make_trace(g, [Run("t", ("e1", "e3")), Run("t", ("e2", "e4"))])

    def test_rejects_reordered_runs_of_one_thread(self, mp_g):
        # both runs are po slices, but the later write is scheduled first
        with pytest.raises(NotHbExtension):
            make_trace(mp_g, [Run("w", (3,)), Run("w", (2,)), Run("r", (4, 5))])

    def test_interleaved_runs_are_fine(self, mp_g):
        tr = make_trace(
            mp_g, [Run("w", (2,)), Run("r", ()), Run("w", (3,)), Run("r", (4, 5))]
        )
        assert counts(tr) == (4, 0)

    def test_rejects_foreign_event(self, mp_g):
        with pytest.raises(RunThreadMixed):
            make_trace(mp_g, [Run("w", (2, 4, 3)), Run("r", (5,))])

    def test_rejects_init_run(self, mp_g):
        with pytest.raises(RunThreadMixed):
            make_trace(mp_g, [Run("init", (0,)), Run("w", (2, 3)), Run("r", (4, 5))])

    def test_rejects_unknown_event(self, mp_g):
        with pytest.raises(UnknownEvent):
            make_trace(mp_g, [Run("w", (2, 3, 99)), Run("r", (4, 5))])


class TestQueries:
    def test_range_in_run(self, mp_g):
        tr = make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4, 5))])
        assert range_in_run(tr, 2, 3) == (3,)
        with pytest.raises(DifferentRuns):
            range_in_run(tr, 2, 5)
        with pytest.raises(WrongOrder):
            range_in_run(tr, 3, 2)
        with pytest.raises(WrongOrder):
            range_in_run(tr, 2, 2)
        with pytest.raises(UnknownEvent):
            range_in_run(tr, 0, 2)  # init events live outside every run

    def test_range_from_first_position(self):
        # the very first event of the first run has position (0, 0, 0);
        # it must still be found (a falsy tuple is not a missing one)
        tr = corpus.twin_write_trace(2)
        assert range_in_run(tr, "e1", "e3") == ("e2", "e3")

    def test_counts_and_budget(self, mp_g):
        tr = make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4, 5))])
        assert counts(tr) == (2, 0)
        assert ContextBudget(2, 0).admits(tr)
        assert not ContextBudget(1, 0).admits(tr)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ContextBudget(0, 0)
        with pytest.raises(ValueError):
            ContextBudget(1, -1)


class TestCanonical:
    def test_mp_round_robin(self, mp_g):
        tr = canonical_trace(mp_g)
        # sorted tids: r before w, but r's reads wait for their writers
        assert [(run.tid, run.events) for run in tr.runs] == [
            ("w", (2, 3)),
            ("r", (4, 5)),
        ]

    def test_deterministic(self, mp_g):
        assert canonical_trace(mp_g).runs == canonical_trace(mp_g).runs

    def test_cyclic_graph_rejected(self):
        events = [
            Event(0, read("t", "x", "1")),
            Event(1, write("t", "y", "1")),
            Event(2, read("u", "y", "1")),
            Event(3, write("u", "x", "1")),
        ]
        g = build_graph(
            events, {"t": [0, 1], "u": [2, 3]}, {0: 3, 2: 1}, {"x": [3], "y": [1]}
        )
        with pytest.raises(NotHbExtension):
            canonical_trace(g)


def random_runs(graph, rnd: random.Random) -> list[Run]:
    """Each thread's po row cut at random boundaries, the pieces shuffled."""
    runs = []
    for t in graph.tids():
        seg: list = []
        for e in graph.po[t]:
            if seg and rnd.random() < 0.5:
                runs.append(Run(t, tuple(seg)))
                seg = []
            seg.append(e)
        if seg:
            runs.append(Run(t, tuple(seg)))
    rnd.shuffle(runs)
    return runs


class TestHbExtensionRule:
    """make_trace checks π on po and rf edges only; the closure rule must agree."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=0, max_value=2000), st.randoms(use_true_random=False))
    def test_edges_agree_with_closure(self, seed, rnd):
        for g in islice(enumerate_graphs(corpus.random_program(seed), 4), 6):
            hb = hb_pairs_oracle(g)
            for _ in range(4):
                runs = random_runs(g, rnd)
                pos = {e: i for i, e in enumerate(e for run in runs for e in run.events)}
                closure_rejects = any(a in pos and b in pos and pos[a] >= pos[b] for a, b in hb)
                try:
                    make_trace(g, runs)
                    rejected = False
                except NotHbExtension:
                    rejected = True
                assert rejected == closure_rejects


class TestJson:
    def test_round_trip(self, mp_g):
        tr = make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4, 5))])
        again = trace_from_json(trace_to_json(tr))
        assert again.graph == tr.graph and again.runs == tr.runs

    def test_dump_load(self):
        tr = corpus.twin_write_trace(3)
        again = load_trace_json(dump_trace_json(tr))
        assert again.graph == tr.graph and again.runs == tr.runs

    def test_dump_deterministic(self, mp_g):
        tr = make_trace(mp_g, [Run("w", (2, 3)), Run("r", (4, 5))])
        assert dump_trace_json(tr) == dump_trace_json(tr)
