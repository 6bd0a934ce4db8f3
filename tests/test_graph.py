"""Execution graphs: construction, validation, happens-before, equality."""

import pytest
from hypothesis import given, settings, strategies as st

from rareach.errors import (
    DuplicateId,
    GraphError,
    MissingWriter,
    MoNotTotal,
    PoNotTotal,
    UnknownThread,
    ValueMismatch,
)
from rareach.decider import enumerate_graphs
from rareach.graph import (
    Event,
    build_graph,
    dump_graph_json,
    graph_from_json,
    graph_to_json,
    id_key,
    load_graph_json,
    thread_word,
    to_dot,
)
from rareach.model import read, write

from tests import corpus
from tests.oracle import hb_pairs_oracle


def mp_graph():
    """The message-passing witness: both reads see the writes."""
    events = [
        Event(0, write("init", "x", "0")),
        Event(1, write("init", "y", "0")),
        Event(2, write("w", "x", "1")),
        Event(3, write("w", "y", "1")),
        Event(4, read("r", "y", "1")),
        Event(5, read("r", "x", "1")),
    ]
    po = {"w": [2, 3], "r": [4, 5]}
    rf = {4: 3, 5: 2}
    mo = {"x": [0, 2], "y": [1, 3]}
    return build_graph(events, po, rf, mo)


class TestBuild:
    def test_mp_builds(self):
        g = mp_graph()
        assert len(g.events) == 6
        assert g.init_events() == (0, 1)  # sorted by location
        assert g.non_init_events() == [4, 5, 2, 3]  # threads sorted, po order

    def test_duplicate_id(self):
        events = [Event(0, write("t", "x", "1")), Event(0, write("t", "x", "0"))]
        with pytest.raises(DuplicateId):
            build_graph(events, {"t": [0]}, {}, {"x": [0]})

    def test_po_not_permutation(self):
        events = [Event(0, write("t", "x", "1")), Event(1, write("t", "x", "0"))]
        with pytest.raises(PoNotTotal):
            build_graph(events, {"t": [0]}, {}, {"x": [0, 1]})

    def test_po_row_missing(self):
        with pytest.raises(PoNotTotal):
            build_graph([Event(0, write("t", "x", "1"))], {}, {}, {"x": [0]})

    def test_read_without_writer(self):
        events = [Event(0, read("t", "x", "0"))]
        with pytest.raises(MissingWriter):
            build_graph(events, {"t": [0]}, {}, {})

    def test_rf_value_mismatch(self):
        events = [Event(0, write("t", "x", "1")), Event(1, read("u", "x", "0"))]
        with pytest.raises(ValueMismatch):
            build_graph(events, {"t": [0], "u": [1]}, {1: 0}, {"x": [0]})

    def test_rf_cross_location(self):
        events = [Event(0, write("t", "y", "0")), Event(1, read("u", "x", "0"))]
        with pytest.raises(GraphError):
            build_graph(events, {"t": [0], "u": [1]}, {1: 0}, {"y": [0]})

    def test_mo_not_total(self):
        events = [Event(0, write("t", "x", "1")), Event(1, write("u", "x", "0"))]
        with pytest.raises(MoNotTotal):
            build_graph(events, {"t": [0], "u": [1]}, {}, {"x": [0]})

    def test_mo_init_must_come_first(self):
        events = [Event(0, write("init", "x", "0")), Event(1, write("t", "x", "1"))]
        with pytest.raises(MoNotTotal):
            build_graph(events, {"t": [1]}, {}, {"x": [1, 0]})

    def test_two_init_writes_same_location(self):
        events = [Event(0, write("init", "x", "0")), Event(1, write("init", "x", "1"))]
        with pytest.raises(GraphError):
            build_graph(events, {}, {}, {"x": [0, 1]})

    def test_bool_event_id_rejected(self):
        with pytest.raises(GraphError):
            id_key(True)


class TestHappensBefore:
    def test_init_before_everything(self):
        g = mp_graph()
        for e0 in (0, 1):
            for e in (2, 3, 4, 5):
                assert g.hb(e0, e)

    def test_init_events_unordered(self):
        g = mp_graph()
        assert not g.hb(0, 1) and not g.hb(1, 0)

    def test_po_and_rf_compose(self):
        g = mp_graph()
        assert g.hb(2, 5)  # w x -> (po) w y -> (rf) r y -> (po) r x
        assert not g.hb(4, 3)

    def test_matches_oracle_on_mp(self):
        g = mp_graph()
        assert {(a, b) for a in g.events for b in g.events if g.hb(a, b)} == hb_pairs_oracle(g)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=2000))
    def test_matches_oracle_on_random_graphs(self, seed):
        prog = corpus.random_program(seed)
        for i, g in enumerate(enumerate_graphs(prog, 3)):
            assert {(a, b) for a in g.events for b in g.events if g.hb(a, b)} == hb_pairs_oracle(g)
            if i >= 5:
                break

    def test_cycle_is_representable(self):
        # two reads observing each other's later writes: po ∪ rf is cyclic;
        # hb must report it rather than hang (consistency rejects it later)
        events = [
            Event(0, read("t", "x", "1")),
            Event(1, write("t", "y", "1")),
            Event(2, read("u", "y", "1")),
            Event(3, write("u", "x", "1")),
        ]
        g = build_graph(
            events, {"t": [0, 1], "u": [2, 3]}, {0: 3, 2: 1}, {"x": [3], "y": [1]}
        )
        assert g.hb(0, 0) and g.hb(3, 3)


class TestEqualityAndWords:
    def test_renamed_ids_are_equal(self):
        g1 = mp_graph()
        events = [
            Event("ix", write("init", "x", "0")),
            Event("iy", write("init", "y", "0")),
            Event("a", write("w", "x", "1")),
            Event("b", write("w", "y", "1")),
            Event("c", read("r", "y", "1")),
            Event("d", read("r", "x", "1")),
        ]
        g2 = build_graph(
            events,
            {"w": ["a", "b"], "r": ["c", "d"]},
            {"c": "b", "d": "a"},
            {"x": ["ix", "a"], "y": ["iy", "b"]},
        )
        assert g1 == g2

    def test_different_rf_not_equal(self):
        g1 = mp_graph()
        events = [
            Event(0, write("init", "x", "0")),
            Event(1, write("init", "y", "0")),
            Event(2, write("w", "x", "1")),
            Event(3, write("w", "y", "1")),
            Event(4, read("r", "y", "1")),
            Event(5, read("r", "x", "0")),
        ]
        g2 = build_graph(
            events, {"w": [2, 3], "r": [4, 5]}, {4: 3, 5: 0}, {"x": [0, 2], "y": [1, 3]}
        )
        assert g1 != g2

    def test_graphs_not_hashable(self):
        with pytest.raises(TypeError):
            hash(mp_graph())

    def test_thread_word(self):
        g = mp_graph()
        assert [str(l) for l in thread_word(g, "w")] == ["w: w x 1", "w: w y 1"]
        with pytest.raises(UnknownThread):
            thread_word(g, "init")
        with pytest.raises(UnknownThread):
            thread_word(g, "nope")


class TestJsonAndDot:
    def test_round_trip(self):
        g = mp_graph()
        assert graph_from_json(graph_to_json(g)) == g

    def test_dump_load(self):
        g = mp_graph()
        assert load_graph_json(dump_graph_json(g)) == g

    def test_dump_is_deterministic(self):
        assert dump_graph_json(mp_graph()) == dump_graph_json(mp_graph())

    def test_dot_mentions_every_event(self):
        g = mp_graph()
        dot = to_dot(g)
        for e in g.events:
            assert f'"{e}"' in dot
        assert "color=green" in dot and "color=orange" in dot
