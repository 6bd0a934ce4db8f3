"""Execution graphs: construction, validation, happens-before, words, JSON and DOT."""

import pytest
from hypothesis import given, settings, strategies as st

from rareach.errors import (
    DuplicateId,
    GraphError,
    MissingWriter,
    MoNotTotal,
    UnknownThread,
    ValueMismatch,
)
from rareach.consistency import Axiom, check_ra
from rareach.decider import SearchConfig, bounded_reach, enumerate_graphs
from rareach.graph import (
    build_graph,
    graph_from_json,
    graph_to_json,
    id_key,
    load_graph_json,
    reaches,
    thread_word,
    to_dot,
)
from rareach.model import Label, Op, final_vector, parse_program, read, write
from rareach.reduction import reduction_steps
from rareach.trace import ContextBudget, load_trace_json

from tests import corpus
from tests.corpus import dump_graph_json
from tests.oracle import hb_pairs_oracle
from tests.test_cli import MO_SWAP, PRODUCER_CONSUMER, loop_trace, mo_swap_trace
from tests.test_pcp import rewired, rf_rewire_candidates


def mp_graph():
    """The message-passing witness: both reads see the writes."""
    events = [
        (0, write("init", "x", "0")),
        (1, write("init", "y", "0")),
        (2, write("w", "x", "1")),
        (3, write("w", "y", "1")),
        (4, read("r", "y", "1")),
        (5, read("r", "x", "1")),
    ]
    rf = {4: 3, 5: 2}
    mo = {"x": [0, 2], "y": [1, 3]}
    return build_graph(events, rf, mo)


def any_rf_rows(data):
    """``build_graph``'s rows for up to three threads of up to four events,
    listed init events first, then thread after thread, whose reads observe any
    other same-location write."""
    rows = data.draw(st.lists(st.lists(st.tuples(st.sampled_from(list(Op)), st.sampled_from("xy")),
                                       min_size=1, max_size=4), min_size=1, max_size=3))
    ops = {f"{t}{k}": (t, op, x) for t, row in zip("abc", rows) for k, (op, x) in enumerate(row)}
    writers = {x: [f"init.{x}"] + [e for e, (_, op, y) in ops.items() if op.writes and y == x] for x in "xy"}
    rf = {e: data.draw(st.sampled_from([w for w in writers[x] if w != e]))
          for e, (_, op, x) in ops.items() if op.reads}
    events = [(f"init.{x}", write("init", x, f"init.{x}")) for x in "xy"]
    events += [(e, Label(op, t, x, val_r=rf.get(e), val_w=e if op.writes else None))
               for e, (t, op, x) in ops.items()]
    return events, rf, writers


class TestBuild:
    def test_mp_builds(self):
        g = mp_graph()
        assert len(g.events) == 6
        assert g.init_events() == (0, 1)  # sorted by location
        assert g.non_init_events() == [4, 5, 2, 3]  # threads sorted, po order

    def test_duplicate_id(self):
        events = [(0, write("t", "x", "1")), (0, write("t", "x", "0"))]
        with pytest.raises(DuplicateId):
            build_graph(events, {}, {"x": [0]})

    def test_read_without_writer(self):
        events = [(0, read("t", "x", "0"))]
        with pytest.raises(MissingWriter):
            build_graph(events, {}, {})

    def test_rf_value_mismatch(self):
        events = [(0, write("t", "x", "1")), (1, read("u", "x", "0"))]
        with pytest.raises(ValueMismatch):
            build_graph(events, {1: 0}, {"x": [0]})

    def test_rf_cross_location(self):
        events = [(0, write("t", "y", "0")), (1, read("u", "x", "0"))]
        with pytest.raises(GraphError):
            build_graph(events, {1: 0}, {"y": [0]})

    def test_mo_not_total(self):
        events = [(0, write("t", "x", "1")), (1, write("u", "x", "0"))]
        with pytest.raises(MoNotTotal):
            build_graph(events, {}, {"x": [0]})

    def test_mo_init_must_come_first(self):
        events = [(0, write("init", "x", "0")), (1, write("t", "x", "1"))]
        with pytest.raises(MoNotTotal):
            build_graph(events, {}, {"x": [1, 0]})

    def test_two_init_writes_same_location(self):
        events = [(0, write("init", "x", "0")), (1, write("init", "x", "1"))]
        with pytest.raises(GraphError):
            build_graph(events, {}, {"x": [0, 1]})

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

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_matches_oracle_with_any_rf(self, data):
        # reads observe any other same-location write, so hb cycles and rf
        # edges pointing backwards in event order are common
        g = build_graph(*any_rf_rows(data))
        assert {(a, b) for a in g.events for b in g.events if g.hb(a, b)} == hb_pairs_oracle(g)

    def test_matches_oracle_on_gadget_cycles(self, long_witness):
        # criterion 7's rewires that close an hb cycle through the PCP gadget
        g = long_witness.graph
        cyclic = [m for m in (rewired(g, r, w) for r, w in rf_rewire_candidates(g))
                  if check_ra(m).axiom is Axiom.IRR_HB]
        assert len(cyclic) == 34
        for m in cyclic[::8]:
            assert {(a, b) for a in m.events for b in m.events if m.hb(a, b)} == hb_pairs_oracle(m)

    def test_cycle_is_representable(self):
        # two reads observing each other's later writes: po ∪ rf is cyclic;
        # hb must report it rather than hang (consistency rejects it later)
        events = [
            (0, read("t", "x", "1")),
            (1, write("t", "y", "1")),
            (2, read("u", "y", "1")),
            (3, write("u", "x", "1")),
        ]
        g = build_graph(
            events, {0: 3, 2: 1}, {"x": [3], "y": [1]}
        )
        assert g.hb(0, 0) and g.hb(3, 3)


class TestEventOrderIsPo:
    """build_graph reads each thread's program order off the order of its events."""

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_any_interleaving_gives_the_grouped_graph(self, data):
        events, rf, mo = any_rf_rows(data)
        # shuffle the listing, then refill each thread's slots with its events
        # in order: the threads interleave, the init events land anywhere
        rows = {}
        for e, lab in events:
            if not lab.is_init:
                rows.setdefault(lab.tid, []).append((e, lab))
        runs = {t: iter(row) for t, row in rows.items()}
        mixed = [ev if ev[1].is_init else next(runs[ev[1].tid]) for ev in data.draw(st.permutations(events))]
        grouped, g = build_graph(events, rf, mo), build_graph(mixed, rf, mo)
        assert {t: [e for e, _ in row] for t, row in rows.items()} == {t: list(row) for t, row in g.po.items()}
        assert list(g.events.items()) == list(grouped.events.items())
        assert (g.po, g.rf, g.mo) == (grouped.po, grouped.rf, grouped.mo)
        assert dump_graph_json(g) == dump_graph_json(grouped)
        TestRoundTrip.assert_round_trips(g)


class TestEqualityAndWords:
    def test_thread_word(self):
        g = mp_graph()
        assert [str(l) for l in thread_word(g, "w")] == ["w: w x 1", "w: w y 1"]
        with pytest.raises(UnknownThread):
            thread_word(g, "init")
        with pytest.raises(UnknownThread):
            thread_word(g, "nope")

    def test_reaches_rejects_an_undeclared_thread(self):
        # mp_graph's threads are w and r, the program's writer and reader
        prog = corpus.mp()
        with pytest.raises(UnknownThread):
            reaches(mp_graph(), prog, final_vector(prog))


class TestJsonAndDot:
    def test_round_trip(self):
        g = mp_graph()
        assert dump_graph_json(graph_from_json(graph_to_json(g))) == dump_graph_json(g)

    def test_dump_load(self):
        g = mp_graph()
        assert dump_graph_json(load_graph_json(dump_graph_json(g))) == dump_graph_json(g)

    def test_dump_is_deterministic(self):
        assert dump_graph_json(mp_graph()) == dump_graph_json(mp_graph())

    def test_dot_mentions_every_event(self):
        g = mp_graph()
        dot = to_dot(g)
        for e in g.events:
            assert f'"{e}"' in dot
        assert "color=green" in dot and "color=orange" in dot


def round_trip_programs():
    return [corpus.mp(), corpus.sb(), *corpus.loopy_rmw_programs(), *(corpus.random_program(s) for s in range(10))]


class TestRoundTrip:
    """Loading a graph's JSON gives the graph back: its event order, po, rf and mo."""

    @staticmethod
    def assert_round_trips(graph):
        back = graph_from_json(graph_to_json(graph))
        assert list(back.events.items()) == list(graph.events.items())
        assert list(back.po.items()) == list(graph.po.items())
        assert (back.rf, back.mo) == (graph.rf, graph.mo)

    def test_enumerated_graphs(self):
        graphs = [g for prog in round_trip_programs() for g in enumerate_graphs(prog, 3)]
        assert len(graphs) == 153
        for g in graphs:
            self.assert_round_trips(g)

    def test_search_witnesses(self):
        config = SearchConfig(ContextBudget(3, 1), 6, memo=True)
        witnesses = [bounded_reach(prog, config).witness for prog in round_trip_programs()]
        assert sum(w is not None for w in witnesses) == 6
        for w in witnesses:
            if w is not None:
                self.assert_round_trips(w.graph)

    def test_reduced_traces(self):
        cases = [
            (corpus.twin_write_trace(4), corpus.twin_write_loop()),
            (load_trace_json(loop_trace(PRODUCER_CONSUMER, ["p", "c"], 6)), parse_program(PRODUCER_CONSUMER)),
            (load_trace_json(mo_swap_trace()), parse_program(MO_SWAP)),
        ]
        reduced = [after for trace, prog in cases for _, after, *_ in reduction_steps(trace, prog)]
        assert len(reduced) >= len(cases)
        for trace in reduced:
            self.assert_round_trips(trace.graph)

    def test_pcp_witness(self, witness):
        self.assert_round_trips(witness.graph)
