"""Program model: labels, transition systems, parsing, word semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from rareach.errors import ParseError, UnknownThread
from rareach.model import (
    Label,
    Lts,
    Op,
    final_vector,
    label_key,
    parse_program,
    read,
    rmw,
    serialize_program,
    step_states,
    word_reaches,
    write,
)

from tests import corpus


class TestLabel:
    def test_read_fields(self):
        lab = read("t", "x", "1")
        assert lab.op is Op.READ and lab.val_r == "1" and lab.val_w is None

    def test_write_fields(self):
        lab = write("t", "x", "0")
        assert lab.op is Op.WRITE and lab.val_w == "0" and lab.val_r is None

    def test_rmw_fields(self):
        lab = rmw("t", "x", "0", "1")
        assert lab.op.reads and lab.op.writes

    @pytest.mark.parametrize(
        "value,op,reads,writes",
        [("r", Op.READ, True, False), ("w", Op.WRITE, False, True), ("rmw", Op.RMW, True, True)],
    )
    def test_op_kinds(self, value, op, reads, writes):
        assert Op(value) is op and repr(op) == value
        assert (op.reads, op.writes) == (reads, writes)

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError):
            Label(Op.READ, "t", "x")
        with pytest.raises(ValueError):
            Label(Op.WRITE, "t", "x", val_r="1", val_w="1")

    def test_str(self):
        assert str(rmw("t", "x", "0", "1")) == "t: rmw x 0 1"


class TestStepStates:
    def test_nondeterministic_image(self):
        lab = write("t", "x", "1")
        lts = Lts(
            "q0", "q2",
            frozenset({"q0", "q1", "q2"}),
            frozenset({("q0", lab, "q1"), ("q0", lab, "q2")}),
        )
        assert step_states(lts, {"q0"}, lab) == {"q1", "q2"}

    def test_empty_image(self):
        lab = write("t", "x", "1")
        lts = Lts("q0", "q0", frozenset({"q0"}), frozenset())
        assert step_states(lts, {"q0"}, lab) == frozenset()

    def test_image_distributes_over_union(self):
        prog = corpus.mp()
        lts = prog.threads["writer"]
        lab = write("writer", "y", "1")
        both = step_states(lts, {"a0", "a1"}, lab)
        assert both == step_states(lts, {"a0"}, lab) | step_states(lts, {"a1"}, lab)


class TestIndexedForm:
    """``Lts.enabled`` / ``Lts.step`` against a brute-force transition scan."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=4000), st.sampled_from([0.0, 0.4]), st.data())
    def test_matches_transition_scan(self, seed, rmw_prob, data):
        prog = corpus.random_program(seed, rmw_prob=rmw_prob)
        for lts in prog.threads.values():
            states = data.draw(st.frozensets(st.sampled_from(sorted(lts.states))))
            want = sorted({lab for src, lab, _ in lts.transitions if src in states}, key=label_key)
            for _ in range(2):  # the second round answers from the memo
                assert lts.enabled(states) == tuple(want)
                for lab in {lab for _, lab, _ in lts.transitions}:
                    image = {dst for src, l, dst in lts.transitions if src in states and l == lab}
                    assert lts.step(states, lab) == frozenset(image)
                    assert step_states(lts, set(states), lab) == frozenset(image)
                    assert type(lts.step(states, lab)) is frozenset

    def test_index_rows(self):
        lts = corpus.mp().threads["reader"]
        assert lts.index == {
            "b0": {read("reader", "y", "1"): ["b1"]},
            "b1": {read("reader", "x", "1"): ["b2"]},
        }

    def test_index_ignored_by_equality(self):
        a, b = corpus.mp().threads["writer"], corpus.mp().threads["writer"]
        a.enabled(frozenset({a.init}))
        assert a == b and hash(a) == hash(b)


class TestWordReaches:
    def test_mp_words(self, mp_program):
        words = {
            "writer": [write("writer", "x", "1"), write("writer", "y", "1")],
            "reader": [read("reader", "y", "1"), read("reader", "x", "1")],
        }
        assert word_reaches(mp_program, words, final_vector(mp_program))

    def test_missing_thread_runs_empty_word(self, mp_program):
        target = dict(final_vector(mp_program))
        target["reader"] = "b0"
        words = {"writer": [write("writer", "x", "1"), write("writer", "y", "1")]}
        assert word_reaches(mp_program, words, target)

    def test_unknown_thread_rejected(self, mp_program):
        with pytest.raises(UnknownThread):
            word_reaches(mp_program, {"ghost": []}, final_vector(mp_program))
        with pytest.raises(UnknownThread):
            word_reaches(mp_program, {}, {"writer": "a0"})  # reader missing


class TestParse:
    def test_mp_shape(self, mp_program):
        assert set(mp_program.threads) == {"writer", "reader"}
        assert mp_program.locs == {"x", "y"}
        assert mp_program.init_vals == {"x": "0", "y": "0"}

    def test_init_defaults_to_zero(self):
        prog = parse_program("locs x\nvals 0 1\nthread t init q0 final q0\n")
        assert prog.init_vals == {"x": "0"}

    def test_missing_zero_needs_explicit_init(self):
        with pytest.raises(ParseError):
            parse_program("locs x\nvals 1 2\nthread t init q0 final q0\n")

    def test_reserved_thread_id(self):
        with pytest.raises(ParseError):
            parse_program("locs x\nvals 0\nthread init init q0 final q0\n")

    def test_duplicate_transition(self):
        text = corpus.MP + "thread w2 init c0 final c1\n  c0 c1 w x 1\n  c0 c1 w x 1\n"
        with pytest.raises(ParseError):
            parse_program(text)

    def test_duplicate_locs_line(self):
        with pytest.raises(ParseError):
            parse_program("locs x\nlocs y\nvals 0\n")

    def test_unknown_location_in_transition(self):
        with pytest.raises(ParseError):
            parse_program("locs x\nvals 0 1\nthread t init q0 final q1\n  q0 q1 w z 1\n")

    def test_comments_and_blank_lines(self):
        prog = parse_program("# hi\nlocs x # trailing\n\nvals 0\n")
        assert prog.locs == {"x"}

    def test_rmw_takes_two_values(self):
        prog = parse_program(
            "locs x\nvals 0 1\nthread t init q0 final q1\n  q0 q1 rmw x 0 1\n"
        )
        (lab,) = [l for _, l, _ in prog.threads["t"].transitions]
        assert (lab.val_r, lab.val_w) == ("0", "1")


class TestRoundTrip:
    def test_serialize_parse_mp(self, mp_program):
        again = parse_program(serialize_program(mp_program))
        assert again == mp_program

    @given(st.integers(min_value=0, max_value=4000))
    def test_serialize_parse_random(self, seed):
        prog = corpus.random_program(seed, rmw_prob=0.2)
        assert parse_program(serialize_program(prog)) == prog

    def test_label_key_orders_deterministically(self):
        labs = [write("t", "y", "1"), read("t", "x", "0"), rmw("t", "x", "0", "1")]
        keys = sorted(label_key(l) for l in labs)
        assert keys == sorted(keys) and len(set(keys)) == 3
