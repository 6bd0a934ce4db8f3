"""The four release/acquire axioms and their violation witnesses."""

import pytest
from hypothesis import given, settings, strategies as st
from itertools import permutations, product

from rareach.consistency import AXIOM_ORDER, Axiom, Verdict, check_axiom, check_ra
from rareach.graph import build_graph
from rareach.model import read, rmw, write

from tests import corpus
from tests.oracle import axiom_failures_oracle, consistent_oracle, least_violation_oracle


def hb_cycle_graph():
    events = [
        (0, read("t", "x", "1")),
        (1, write("t", "y", "1")),
        (2, read("u", "y", "1")),
        (3, write("u", "x", "1")),
    ]
    return build_graph(
        events, {0: 3, 2: 1}, {"x": [3], "y": [1]}
    )


def write_coherence_graph():
    # mo says 1 -> 3 but thread u reads 1's value after writing 3's
    events = [
        (0, write("init", "x", "0")),
        (1, write("t", "x", "1")),
        (2, read("u", "x", "1")),
        (3, write("u", "x", "2")),
    ]
    return build_graph(
        events, {2: 1}, {"x": [0, 3, 1]}
    )


def read_coherence_graph():
    # u reads the stale initial value after the write happened before it
    events = [
        (0, write("init", "x", "0")),
        (1, write("t", "x", "1")),
        (2, read("u", "x", "1")),
        (3, read("u", "x", "0")),
    ]
    return build_graph(
        events, {2: 1, 3: 0}, {"x": [0, 1]}
    )


def two_writers_read_graph():
    # v reads 2 then 1; mo [0, 1, 2] makes its second read stale, mo [0, 2, 1] does not
    events = [
        (0, write("init", "x", "0")),
        (1, write("t", "x", "1")),
        (2, write("u", "x", "2")),
        (3, read("v", "x", "2")),
        (4, read("v", "x", "1")),
    ]
    return build_graph(
        events, {3: 2, 4: 1}, {"x": [0, 1, 2]}
    )


def mixed_id_cycle_graph():
    # the hb cycle runs through "b", 9, "a" and 5; the smaller int 1 lies off it
    g = hb_cycle_graph()
    events = [(new, g.events[old]) for old, new in zip(range(4), ("b", 9, "a", 5))]
    events.append((1, write("v", "z", "1")))
    return build_graph(
        events, {"b": 5, "a": 9}, {"x": [5], "y": [9], "z": [1]}
    )


def mixed_id_read_coherence_graph():
    # (0, "b", "a") and ("a", "d", "c") both violate read coherence; tuples mixing int and str ids do not compare
    events = [
        (0, write("init", "x", "0")),
        ("a", write("t", "x", "1")),
        ("b", read("t", "x", "0")),
        ("c", write("t", "x", "2")),
        ("d", read("t", "x", "1")),
    ]
    return build_graph(events, {"b": 0, "d": "a"}, {"x": [0, "a", "c"]})


def atomicity_graph():
    # a write squeezes between an update and the write it read
    events = [
        (0, write("init", "x", "0")),
        (1, rmw("t", "x", "0", "2")),
        (2, write("u", "x", "1")),
    ]
    return build_graph(events, {1: 0}, {"x": [0, 2, 1]})


class TestAxioms:
    def test_mp_witness_consistent(self):
        events = [
            (0, write("init", "x", "0")),
            (1, write("init", "y", "0")),
            (2, write("w", "x", "1")),
            (3, write("w", "y", "1")),
            (4, read("r", "y", "1")),
            (5, read("r", "x", "1")),
        ]
        g = build_graph(
            events, {4: 3, 5: 2}, {"x": [0, 2], "y": [1, 3]}
        )
        v = check_ra(g)
        assert v.consistent and v.axiom is None and v.witness is None
        assert v.to_json() == {"status": "consistent"}

    def test_hb_cycle(self):
        v = check_ra(hb_cycle_graph())
        assert not v.consistent
        assert v.axiom is Axiom.IRR_HB
        assert v.witness == (0,)  # smallest event on the cycle

    @pytest.mark.parametrize(
        "ids,least",
        [(("r", 7, "q", 2), 2), (("e10", "e9", "e2", "e1"), "e1"), ((9, 4, 6, 5), 4)],
    )
    def test_least_witness_by_id_key(self, ids, least):
        # every event lies on the cycle; ints sort before strings
        g = hb_cycle_graph()
        a, b, c, d = ids
        events = [(new, g.events[old]) for old, new in zip(range(4), ids)]
        g = build_graph(events, {a: d, c: b}, {"x": [d], "y": [b]})
        assert check_ra(g).witness == (least,)

    def test_least_cycle_event_among_mixed_ids(self):
        assert check_ra(mixed_id_cycle_graph()).witness == (5,)

    def test_write_coherence(self):
        v = check_ra(write_coherence_graph())
        assert v.axiom is Axiom.WRITE_COHERENCE
        assert v.witness == (3, 1)  # w mo-before w', w' hb w

    def test_read_coherence(self):
        v = check_ra(read_coherence_graph())
        assert v.axiom is Axiom.READ_COHERENCE
        assert v.witness == (0, 3, 1)  # (w, r, mo-later w')

    def test_atomicity(self):
        v = check_ra(atomicity_graph())
        assert v.axiom is Axiom.ATOMICITY
        assert v.witness == (0, 1, 2)  # (w, update, wedged w')

    def test_axiom_order_is_fixed(self):
        assert [a.value for a in AXIOM_ORDER] == [
            "irr-hb",
            "write-coherence",
            "read-coherence",
            "atomicity",
        ]

    def test_violation_json_shape(self):
        v = check_ra(atomicity_graph())
        assert v.to_json() == {
            "status": "violation",
            "axiom": "atomicity",
            "witness": [0, 1, 2],
        }


FIXED_GRAPHS = [
    hb_cycle_graph,
    write_coherence_graph,
    read_coherence_graph,
    two_writers_read_graph,
    mixed_id_cycle_graph,
    mixed_id_read_coherence_graph,
    atomicity_graph,
]


class TestAgainstOracle:
    @pytest.mark.parametrize("make", FIXED_GRAPHS)
    def test_fixed_graphs(self, make):
        g = make()
        failures = axiom_failures_oracle(g)
        for axiom in Axiom:
            assert check_axiom(g, axiom).consistent == (not failures[axiom.value])
        v = check_ra(g)
        assert (v.consistent, v.axiom.value, v.witness) == least_violation_oracle(g)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=5000))
    def test_random_raw_graphs(self, seed):
        """Unfiltered rf/mo combinations: the checker must match the algebra."""
        import random

        rng = random.Random(seed)
        prog = corpus.random_program(seed)
        # one random word per thread, then every rf/mo combination
        events = [(0, write("init", "x", "0")), (1, write("init", "y", "0"))]
        locs_present = {"x", "y"}
        nid = 2
        for tid, lts in sorted(prog.threads.items()):
            word = []
            states = {lts.init}
            for _ in range(rng.randint(0, 2)):
                opts = sorted(
                    {lab for (s, lab, _) in lts.transitions if s in states},
                    key=str,
                )
                if not opts:
                    break
                lab = rng.choice(opts)
                word.append(lab)
                states = {d for (s, l, d) in lts.transitions if s in states and l == lab}
            for lab in word:
                events.append((nid, lab))
                nid += 1
        writes = {}
        for e, lab in events:
            if lab.op.writes:
                writes.setdefault(lab.loc, []).append(e)
        reads = [(e, lab) for e, lab in events if lab.op.reads]
        cands = []
        for r, lab in reads:
            opts = [
                w for w in writes.get(lab.loc, [])
                if events[w][1].val_w == lab.val_r and w != r
            ]
            if not opts:
                return  # this draw has an unservable read; skip
            cands.append(opts)
        checked = 0
        for rf_pick in product(*cands):
            rf = {r: w for (r, _), w in zip(reads, rf_pick)}
            mo_all = [
                permutations([w for w in writes.get(x, []) if w >= 2])
                for x in sorted(locs_present)
            ]
            for mo_pick in product(*mo_all):
                mo = {
                    x: [i] + list(row)
                    for (i, x), row in zip(enumerate(sorted(locs_present)), mo_pick)
                }
                g = build_graph(events, rf, mo)
                assert check_ra(g).consistent == consistent_oracle(g)
                checked += 1
                if checked >= 8:
                    return


class TestSharedClosure:
    """Graphs built ``like=`` one base share its hb closure; each verdict still follows its own mo."""

    @pytest.mark.parametrize(
        "make,bad,good,axiom",
        [
            (write_coherence_graph, (0, 3, 1), (0, 1, 3), Axiom.WRITE_COHERENCE),
            (two_writers_read_graph, (0, 1, 2), (0, 2, 1), Axiom.READ_COHERENCE),
        ],
        ids=["write-coherence", "read-coherence"],
    )
    def test_each_mo_gets_its_own_verdict(self, make, bad, good, axiom):
        base = make()
        for rows in ((bad, good), (good, bad)):  # a verdict kept on the closure answers the second with the first's
            graphs = [build_graph(base.events, base.rf, {"x": row}, like=base) for row in rows]
            verdicts = {row: check_ra(g) for row, g in zip(rows, graphs)}
            assert verdicts[good].consistent
            assert verdicts[bad].axiom is axiom
            assert [check_axiom(g, axiom).consistent for g in graphs] == [row == good for row in rows]

    def test_one_witness_two_axioms(self):
        # t writes 1 and then updates 0 to 2: mo [0, 1, 2] fails read coherence and atomicity with one triple
        events = [(0, write("init", "x", "0")), (1, write("t", "x", "1")), (2, rmw("t", "x", "0", "2"))]
        g = build_graph(events, {2: 0}, {"x": [0, 1, 2]})
        assert check_ra(g) == Verdict(False, Axiom.READ_COHERENCE, (0, 2, 1))
        assert check_axiom(g, Axiom.ATOMICITY) == Verdict(False, Axiom.ATOMICITY, (0, 2, 1))

    def test_siblings_share_verdicts(self):
        # built like= one base, candidates failing the same way get one Verdict object; another base's are its own
        base = hb_cycle_graph()
        siblings = [build_graph(base.events, base.rf, dict(base.mo), like=base) for _ in range(2)]
        assert check_ra(siblings[0]) is check_ra(siblings[1]) is check_ra(base)
        bad = write_coherence_graph()
        pair = [build_graph(bad.events, bad.rf, {"x": (0, 3, 1)}, like=bad) for _ in range(2)]
        assert check_ra(pair[0]) is check_ra(pair[1])
        other = check_ra(write_coherence_graph())
        assert check_ra(pair[0]) == other and check_ra(pair[0]) is not other
