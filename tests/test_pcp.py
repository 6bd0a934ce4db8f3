"""The correspondence gadget: parsing, compilation, witnesses and audits."""

import hashlib
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from rareach import cli
from rareach.consistency import check_ra
from rareach.errors import GadgetMismatch, InvalidSolution, ParseError
from rareach.graph import build_graph, thread_word
from rareach.model import INIT_TID, final_vector, word_reaches, read, rmw, serialize_program, write
from rareach.pcp import (
    BRIDGE_LOCS,
    DEC_RR,
    LOC_ROLE,
    LOCS,
    RF_WRITER,
    ROLE_MAP,
    WW_GAP2,
    AuditReport,
    PcpInstance,
    check_monotonicity,
    check_no_skipping,
    compile_pcp,
    indexed_events,
    parse_pcp,
    pcp_witness,
    verify_solution,
)
from rareach.trace import ContextBudget, counts

from tests.corpus import dump_trace_json
from tests.oracle import pcp_concat_oracle


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def rf_rewire_candidates(graph):
    """Same-value, same-location rf alternatives that break index pairing."""
    out = []
    writes = [e for e in graph.non_init_events() if graph.events[e].op.writes]
    for r in sorted(graph.rf, key=str):
        rd = graph.events[r]
        for w in writes:
            we = graph.events[w]
            if we.loc == rd.loc and we.val_w == rd.val_r and w not in (graph.rf[r], r):
                out.append((r, w))
    return out


@st.composite
def solved_instances(draw):
    """Instances with 1-3 pairs over {a} or {a,b}, with a brute-forced shortest solution."""
    letters = draw(st.sampled_from(["a", "ab"]))
    word = st.text(alphabet=letters, min_size=1, max_size=2)
    pairs = draw(st.lists(st.tuples(word, word), min_size=1, max_size=3))
    js = next(
        (js for k in range(1, 4) for js in product(range(1, len(pairs) + 1), repeat=k)
         if pcp_concat_oracle(pairs, list(js))),
        None,
    )
    assume(js is not None)
    return PcpInstance(tuple(pairs)), js


def rewired(graph, r, w):
    rf = dict(graph.rf)
    rf[r] = w
    return build_graph(list(graph.events.items()), rf, graph.mo)


class TestParse:
    def test_basic(self):
        inst = parse_pcp("# two pairs\npair a : aa\n\npair ab : b  # dominoes\n")
        assert inst.pairs == (("a", "aa"), ("ab", "b"))
        assert inst.n == 2
        assert inst.alphabet == ("a", "b")
        assert inst.words("a") == {1: "a", 2: "ab"}
        assert inst.words("b") == {1: "aa", 2: "b"}

    @pytest.mark.parametrize(
        "text",
        ["pair a aa", "pair : a", "domino a : b", "pair a : b extra", "", "# only\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_pcp(text)

    def test_instance_validations(self):
        with pytest.raises(ValueError):
            PcpInstance(())
        with pytest.raises(ValueError):
            PcpInstance((("a", ""),))


class TestVerify:
    def test_known_solution(self, pcp_inst):
        assert verify_solution(pcp_inst, (1, 2))
        assert verify_solution(pcp_inst, (1, 2, 1, 2))
        assert not verify_solution(pcp_inst, (2, 1))
        assert not verify_solution(pcp_inst, ())
        assert not verify_solution(pcp_inst, (0,))
        assert not verify_solution(pcp_inst, (3,))

    def test_unsolvable_prefix_mismatch(self):
        inst = PcpInstance((("ab", "ba"),))
        assert not verify_solution(inst, (1,))
        assert not verify_solution(inst, (1, 1))

    @given(st.lists(st.integers(1, 2), max_size=6))
    def test_matches_oracle(self, pcp_inst, js):
        assert verify_solution(pcp_inst, js) == pcp_concat_oracle(pcp_inst.pairs, js)


class TestCompile:
    def test_shape(self, gadget):
        assert set(gadget.threads) == set(ROLE_MAP)
        assert len(gadget.threads) == 12
        assert gadget.locs == frozenset(LOCS)
        assert len(gadget.locs) == 20
        assert BRIDGE_LOCS == {"cross_a", "ell_a", "cross_b", "ell_b"}
        assert gadget.init_vals == {x: "0" for x in LOCS}
        assert "0" in gadget.vals

    def test_machine_sizes_frozen(self, gadget):
        sizes = {
            t: (len(l.states), len(l.transitions))
            for t, l in gadget.threads.items()
        }
        assert sizes["guess_aw"] == (250, 282)
        assert sizes["guess_bw"] == (250, 282)
        assert sizes["guess_ai"] == (58, 66)
        assert sizes["echo_aw"] == (22, 26)
        assert sizes["check_w"] == (54, 62)
        assert sizes["echo_w"] == (56, 60)
        assert sizes["check_i"] == (54, 62)
        assert sizes["echo_i"] == (56, 60)

    def test_at_most_two_writers_per_location(self, gadget):
        writers = {x: set() for x in LOCS}
        for tid, lts in gadget.threads.items():
            for _, lab, _ in lts.transitions:
                if lab.op.writes:
                    writers[lab.loc].add(tid)
        assert all(1 <= len(ws) <= 2 for ws in writers.values())

    def test_reads_stay_inside_the_family_table(self, gadget):
        assert len(RF_WRITER) == 28
        for tid, lts in gadget.threads.items():
            for _, lab, _ in lts.transitions:
                if lab.op.reads:
                    assert (tid, lab.loc) in RF_WRITER

    def test_metadata_and_determinism(self, gadget, pcp_inst):
        assert set(ROLE_MAP) == set(gadget.threads)
        assert set(LOC_ROLE) == gadget.locs
        assert compile_pcp(pcp_inst) == gadget

    def test_three_pair_instance(self):
        gp = compile_pcp(PcpInstance((("a", "ab"), ("b", "ca"), ("ca", "a"))))
        assert len(gp.threads) == 12
        assert len(gp.locs) == 20

    @pytest.mark.parametrize(
        "pairs,text_digest,json_digest",
        [
            ((("a", "aa"), ("ab", "b")),
             "454f7a20eab474b8174cca00e27bd28012729f189c1dda489a07d1be5ed0367b",
             "f0714f2001527c11f55f2be4cd57bca55305b783817acdf3bb03f081c5ed9386"),
            ((("b", "b"),),
             "4146ee8f042335bb36031799fbf65115e27d344addaae81c94181cdd95acc1c4",
             "046713b89e85ef59fe834c894ac312b0863b7ea1dae48bb0f3321eb2ff0fe6cb"),
            ((("a", "aa"), ("aa", "a")),
             "43727932f110062675fbd5efd168e4669c48125c2c4d0ff5707a52bdbe0671cc",
             "981b8a9b7bc4b1c9807460dd2397ea05cc91c6a9145e53636f38926631cba29a"),
        ],
    )
    def test_pinned_bytes(self, capsys, tmp_path, pairs, text_digest, json_digest):
        assert sha256(serialize_program(compile_pcp(PcpInstance(pairs)))) == text_digest
        inst = tmp_path / "inst.txt"
        inst.write_text("".join(f"pair {a} : {b}\n" for a, b in pairs))
        assert cli.main(["pcp", "compile", str(inst), "--json"]) == 0
        assert sha256(capsys.readouterr().out) == json_digest

    def test_pinned_wiring_tables(self):
        tables = [
            sorted(LOCS), sorted(BRIDGE_LOCS), sorted(LOC_ROLE.items()),
            sorted(RF_WRITER.items()), sorted(DEC_RR), sorted(WW_GAP2),
        ]
        assert sha256(repr(tables)) == "9f832bb3358555f6ec87ca2ad4f06755329cd529293092ace2c5ad84f88c28bb"


class TestWitness:
    def test_frozen_size(self, witness):
        g = witness.graph
        assert len(g.events) == 202
        assert len(g.non_init_events()) == 182
        assert counts(witness) == (30, 0)
        assert len(g.rf) == 86
        assert list(g.po["guess_aw"])[0] == "guess_aw.1"
        assert len(g.po["guess_aw"]) == 17
        assert len(g.po["check_w"]) == 22

    def test_consistent_and_audited(self, witness):
        assert check_ra(witness.graph).consistent
        assert check_no_skipping(witness.graph).ok
        assert check_monotonicity(witness.graph).ok

    def test_replays_every_machine_to_final(self, gadget, witness):
        words = {t: thread_word(witness.graph, t) for t in gadget.threads}
        assert word_reaches(gadget, words, final_vector(gadget))

    def test_budget(self, witness):
        assert ContextBudget(30, 0).admits(witness)
        assert not ContextBudget(29, 0).admits(witness)

    def test_longer_solution(self, long_witness):
        g = long_witness.graph
        assert len(g.events) == 338
        assert check_ra(g).consistent
        assert check_no_skipping(g).ok and check_monotonicity(g).ok

    @pytest.mark.parametrize("js", [(2, 1), (), (0,), (3,), (2, 2)])
    def test_rejects_non_solutions(self, pcp_inst, js):
        with pytest.raises(InvalidSolution):
            pcp_witness(pcp_inst, js)


class TestWitnessWalk:
    """Witnesses are walked off the compiled machines' step functions."""

    @pytest.mark.parametrize(
        "pairs,js,digest",
        [
            ((("a", "aa"), ("ab", "b")), (1, 2, 1, 2),
             "710d9264f76303b3dcf36fb97fdc5e545e7980f9f1cc597b7cf06594bd9d35f0"),
            # one pair: the first block of the guessers and check_i is no fork
            ((("b", "b"),), (1, 1),
             "da732160f920201a80c2ebefa51f7516031b7aacb0bd47c08db39495bf3599f3"),
            # one letter: the first block of check_w is no fork
            ((("a", "aa"), ("aa", "a")), (1, 2),
             "da5d77724a2120dcf6ffa3163284e7b64cc3e393523edad8d659eec118fb66fc"),
        ],
    )
    def test_pinned_bytes(self, pairs, js, digest):
        text = dump_trace_json(pcp_witness(PcpInstance(pairs), js))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(deadline=None, max_examples=25)
    @given(solved_instances())
    def test_random_solutions_replay_and_audit(self, case):
        inst, js = case
        prog = compile_pcp(inst)
        g = pcp_witness(inst, js).graph
        words = {t: thread_word(g, t) for t in prog.threads}
        assert word_reaches(prog, words, final_vector(prog))
        assert check_ra(g).consistent
        assert check_no_skipping(g).ok
        assert check_monotonicity(g).ok


class TestIndexing:
    def test_stream_write_indices(self, witness):
        g = witness.graph
        idx = indexed_events(g)
        aws = [e for e in g.po["guess_aw"] if g.events[e].loc == "aw"]
        assert [idx[e] for e in aws] == [1, 2, 3, 4]

    def test_counts_reads_and_writes_separately(self):
        g = build_graph(
            [
                ("init.aw", write(INIT_TID, "aw", "0")),
                ("g1", write("guess_aw", "aw", "v")),
                ("c1", read("check_w", "aw", "v")),
                ("c2", write("check_w", "aw", "v")),
            ],
            {"c1": "g1"},
            {"aw": ["init.aw", "g1", "c2"]},
        )
        idx = indexed_events(g)
        assert idx == {"g1": 1, "c1": 1, "c2": 1}


class TestAudits:
    def test_report_json(self, witness):
        rep = check_no_skipping(witness.graph)
        assert rep.to_json() == {"ok": True, "violations": []}
        assert rep == AuditReport(True, ())

    def test_rewired_read_fails_no_skipping(self, witness):
        g = witness.graph
        cands = rf_rewire_candidates(g)
        assert len(cands) == 16
        for r, w in cands[:3]:
            rep = check_no_skipping(rewired(g, r, w))
            assert not rep.ok
            assert any(str(r) in v for v in rep.violations)

    def test_monotonicity_negative(self):
        # the verifier writes back a stream cell it has already read: both
        # the po discipline and the cross-thread write ordering break
        g = build_graph(
            [
                ("init.aw", write(INIT_TID, "aw", "0")),
                ("g1", write("guess_aw", "aw", "v")),
                ("c1", read("check_w", "aw", "v")),
                ("c2", write("check_w", "aw", "v")),
            ],
            {"c1": "g1"},
            {"aw": ["init.aw", "g1", "c2"]},
        )
        assert check_no_skipping(g).ok
        rep = check_monotonicity(g)
        assert not rep.ok
        assert len(rep.violations) == 2

    def test_foreign_graphs_rejected(self):
        alien_tid = build_graph(
            [("a", write("writer", "aw", "1"))],
            {},
            {"aw": ["a"]},
        )
        with pytest.raises(GadgetMismatch):
            check_no_skipping(alien_tid)
        alien_loc = build_graph(
            [("a", write("guess_aw", "x", "1"))],
            {},
            {"x": ["a"]},
        )
        with pytest.raises(GadgetMismatch):
            check_monotonicity(alien_loc)
        update = build_graph(
            [
                ("init.aw", write(INIT_TID, "aw", "0")),
                ("u", rmw("check_w", "aw", "0", "1")),
            ],
            {"u": "init.aw"},
            {"aw": ["init.aw", "u"]},
        )
        with pytest.raises(GadgetMismatch):
            check_monotonicity(update)

    def test_rewire_reports_pinned(self, long_witness):
        # criterion 7's adversarial rewires: every violation, in order
        g = long_witness.graph
        mutants = [rewired(g, r, w) for r, w in rf_rewire_candidates(g)]
        assert len(mutants) == 162
        skip = "\n".join(repr(check_no_skipping(m)) for m in mutants)
        mono = "\n".join(repr(check_monotonicity(m)) for m in mutants)
        assert sha256(skip) == "45c8f7f8e455de4030f17e6858e0d71412e5046da388587193e94a779e086bf3"
        assert sha256(mono) == "5030b6fbbb26d9cbe36163519c1d62b4eea3f1bd2dd1b5335375700a37700052"
