"""Program model: labels, transition systems, parsing, word semantics."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from rareach.errors import ParseError, UnknownThread
from rareach.model import (
    Label,
    Lts,
    Op,
    Program,
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
        with pytest.raises(ValueError, match="^w label needs val_w$"):
            Label(Op.WRITE, "t", "x")
        with pytest.raises(ValueError, match="^r label cannot carry val_w$"):
            Label(Op.READ, "t", "x", val_r="1", val_w="1")

    def test_str(self):
        assert str(rmw("t", "x", "0", "1")) == "t: rmw x 0 1"


class TestStepStates:
    def test_nondeterministic_image(self):
        lab = write("t", "x", "1")
        lts = Lts(
            "q0", "q2",
            frozenset({("q0", lab, "q1"), ("q0", lab, "q2")}),
        )
        assert step_states(lts, {"q0"}, lab) == {"q1", "q2"}

    def test_empty_image(self):
        lab = write("t", "x", "1")
        lts = Lts("q0", "q0", frozenset())
        assert step_states(lts, {"q0"}, lab) == frozenset()

    def test_image_distributes_over_union(self):
        prog = corpus.mp()
        lts = prog.threads["writer"]
        lab = write("writer", "y", "1")
        both = step_states(lts, {"a0", "a1"}, lab)
        assert both == step_states(lts, {"a0"}, lab) | step_states(lts, {"a1"}, lab)


class TestIndexedForm:
    """``Program.forms`` against a brute-force transition scan."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(min_value=0, max_value=4000), st.sampled_from([0.0, 0.4]), st.data())
    def test_matches_transition_scan(self, seed, rmw_prob, data):
        prog = corpus.random_program(seed, rmw_prob=rmw_prob)
        locs = sorted(prog.locs)
        for tid, lts in prog.threads.items():
            form = prog.forms[tid]
            names = sorted(lts.states)
            assert form.bit == {q: 1 << k for k, q in enumerate(names)}
            assert (form.init, form.final) == (form.bit[lts.init], form.bit[lts.final])
            mask = data.draw(st.integers(min_value=0, max_value=(1 << len(names)) - 1))
            states = form.names(mask)
            assert states == {q for k, q in enumerate(names) if mask >> k & 1}
            want = sorted({lab for src, lab, _ in lts.transitions if src in states}, key=label_key)
            for _ in range(2):  # the second round answers from the table
                assert [lab for lab, _, _ in form[mask]] == want
                for lab, i, image in form[mask]:
                    assert i == locs.index(lab.loc)
                    assert form.names(image) == {dst for src, l, dst in lts.transitions if src in states and l == lab}
                for lab in {lab for _, lab, _ in lts.transitions}:
                    image = {dst for src, l, dst in lts.transitions if src in states and l == lab}
                    assert form.names(form.step(mask, lab)) == image
                    assert step_states(lts, set(states), lab) == frozenset(image)
                    assert type(step_states(lts, states, lab)) is frozenset

    def test_mp_reader_form(self):
        form = corpus.mp().forms["reader"]
        ry, rx = read("reader", "y", "1"), read("reader", "x", "1")
        assert form.bit == {"b0": 1, "b1": 2, "b2": 4} and (form.init, form.final) == (1, 4)
        assert (form[0], form[1], form[2], form[4]) == ((), ((ry, 1, 2),), ((rx, 0, 4),), ())
        assert form[3] == ((rx, 0, 4), (ry, 1, 2))  # label_key order: x before y
        assert form.step(3, ry) == 2 and form.step(1, rx) == 0

    def test_index_ignored_by_equality(self):
        a, b = corpus.mp(), corpus.mp()
        a.forms["writer"][a.forms["writer"].init]
        assert a == b and a.threads["writer"] == b.threads["writer"]
        assert hash(a.threads["writer"]) == hash(b.threads["writer"])


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


class TestProgramChecks:
    """``Program`` checks that parsed text never reaches, for callers that build one directly."""

    @staticmethod
    def build(threads, init_vals=None):
        return Program(
            threads=threads,
            locs=frozenset({"x"}),
            vals=frozenset({"0", "1"}),
            init_vals={"x": "0"} if init_vals is None else init_vals,
        )

    def test_reserved_thread(self):
        with pytest.raises(ValueError, match="^thread id 'init' is reserved$"):
            self.build({"init": Lts("q0", "q0", frozenset())})

    def test_label_of_another_thread(self):
        lts = Lts("q0", "q1", frozenset({("q0", write("u", "x", "1"), "q1")}))
        with pytest.raises(ValueError, match="^label u: w x 1 declared under thread 't'$"):
            self.build({"t": lts})

    @pytest.mark.parametrize("init_vals", [{}, {"x": "0", "y": "0"}])
    def test_init_vals_must_cover_locs(self, init_vals):
        with pytest.raises(ValueError, match="^init_vals must assign exactly the declared locations$"):
            self.build({}, init_vals)

    @pytest.mark.parametrize(
        "state", ["init", "locs", "vals", "thread", "a b", "", "q#", "q\t", "\u2028"]
    )
    def test_state_the_text_format_cannot_write(self, state):
        # a transition out of `init` would serialize to `  init q1 w x 1`, read back as a second init line
        lts = Lts(state, "q1", frozenset({(state, write("t", "x", "1"), "q1")}))
        with pytest.raises(ValueError, match=f"^control state {re.escape(repr(state))} of thread 't' cannot be written in the text format$"):
            self.build({"t": lts})

    @pytest.mark.parametrize("what,name", [("thread id", ""), ("thread id", "t u"), ("thread id", "t#")])
    def test_thread_id_the_text_format_cannot_write(self, what, name):
        with pytest.raises(ValueError, match=f"^{what} {re.escape(repr(name))} cannot be written in the text format$"):
            self.build({name: Lts("q0", "q0", frozenset())})

    @pytest.mark.parametrize(
        "locs,vals,message",
        [
            ({"x", "y=1"}, {"0"}, "location 'y=1'"),
            ({"x", " y"}, {"0"}, "location ' y'"),
            ({"x"}, {"0", "", "1 2"}, "value ''"),
            ({"x"}, {"0", "#1"}, "value '#1'"),
        ],
    )
    def test_alphabet_the_text_format_cannot_write(self, locs, vals, message):
        with pytest.raises(ValueError, match=f"^{message} cannot be written in the text format$"):
            Program({}, frozenset(locs), frozenset(vals), {x: "0" for x in locs})

    def test_empty_alphabets(self):
        with pytest.raises(ValueError, match="^locs and vals must each declare at least one name$"):
            Program({}, frozenset(), frozenset({"0"}), {})

    def test_values_may_hold_equals_signs(self):
        # the init entry splits at its first '=', so only locations must avoid it
        prog = Program({}, frozenset({"x"}), frozenset({"a=b"}), {"x": "a=b"})
        assert parse_program(serialize_program(prog)) == prog


#: names the text format cannot write, keywords, names it can, and any short text
NAMES = st.one_of(
    st.sampled_from(["", " ", "a b", "\t", "\u2028", "#", "q#", "x=1", "=", "init", "locs", "vals", "thread"]),
    st.sampled_from(["q0", "x", "0", "1", "a=b", "final", "r", "w", "rmw"]),
    st.text(st.characters(codec="utf-8", exclude_categories=["Z", "C"]), min_size=1, max_size=3),
    st.text(max_size=3),
)


@st.composite
def program_args(draw):
    """Arguments for ``Program``, valid or not, every name drawn from one small pool."""
    pool = sorted(draw(st.sets(NAMES, min_size=1, max_size=5)))
    name = st.sampled_from(pool)
    locs = draw(st.frozensets(name, min_size=1, max_size=2))
    vals = draw(st.frozensets(name, min_size=1, max_size=2))
    loc, val = st.sampled_from(sorted(locs)), st.sampled_from(sorted(vals))
    init_vals = {x: draw(val) for x in locs}
    threads = {}
    for tid in draw(st.sets(name, max_size=3)):
        rows = set()
        for _ in range(draw(st.integers(0, 4))):
            op = draw(st.sampled_from(list(Op)))
            lab = Label(op, tid, draw(loc), draw(val) if op.reads else None, draw(val) if op.writes else None)
            rows.add((draw(name), lab, draw(name)))
        threads[tid] = Lts(draw(name), draw(name), frozenset(rows))
    return threads, locs, vals, init_vals


class TestRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(program_args())
    def test_every_accepted_program_round_trips(self, args):
        try:
            prog = Program(*args)
        except ValueError as exc:
            assert exc.args[0] is not None  # the ordered rescan names what the joined scan refused
            return
        assert parse_program(serialize_program(prog)) == prog

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
