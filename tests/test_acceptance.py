"""Acceptance checks, one test per criterion.

Every test prints a single ``[PASS]``/``[FAIL]`` line; the lines are repeated
in the terminal summary so a plain ``pytest -v`` run shows the scorecard.
"""

import json
import time
from contextlib import contextmanager

from rareach import cli
from rareach.consistency import Axiom, check_ra
from rareach.decider import SearchConfig, bounded_reach, enumerate_graphs, naive_reach
from rareach.graph import reaches, thread_word
from rareach.model import Op, final_vector, word_reaches
from rareach.pcp import check_monotonicity, check_no_skipping, compile_pcp, pcp_witness
from rareach.reduction import (
    collapsible,
    find_collapsible,
    reduce,
    reduce_fixpoint,
    small_model_bound,
    small_model_bound_formula,
)
from rareach.trace import ContextBudget, canonical_trace

from tests import corpus
from tests.oracle import bound_oracle
from tests.test_pcp import rf_rewire_candidates, rewired

RESULTS: list[str] = []


@contextmanager
def criterion(number, what):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"[FAIL] criterion {number}: {what}")
        print(RESULTS[-1])
        raise
    RESULTS.append(
        f"[PASS] criterion {number}: {what} ({time.perf_counter() - start:.2f}s)"
    )
    print(RESULTS[-1])


def graph_traces(programs, max_events=5, per_program=40):
    for prog in programs:
        n = 0
        for g in enumerate_graphs(prog, max_events):
            yield prog, canonical_trace(g)
            n += 1
            if n >= per_program:
                break


def collapsible_pairs(trace, prog, rmw_mode=False):
    for run in trace.runs:
        ev = run.events
        for i in range(len(ev)):
            for j in range(i + 1, len(ev)):
                if collapsible(trace, prog, ev[i], ev[j], rmw_mode=rmw_mode):
                    yield ev[i], ev[j]


def test_criterion_1_litmus_classification():
    with criterion(1, "litmus classification (MP/SB/CoRR)"):
        start = time.perf_counter()
        assert naive_reach(corpus.mp(), 4).reachable
        assert not naive_reach(corpus.mp_forbidden(), 4).reachable
        assert naive_reach(corpus.sb(), 4).reachable
        assert not naive_reach(corpus.corr(), 6).reachable
        assert time.perf_counter() - start < 5.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "naive/bounded agreement on 50 random programs"):
        start = time.perf_counter()
        budget = SearchConfig(ContextBudget(4, 4), event_cap=4)
        for seed in range(50):
            prog = corpus.random_program(seed)
            truth = naive_reach(prog, 4)
            search = bounded_reach(prog, budget)
            assert truth.reachable == search.reachable, f"seed {seed}"
        assert time.perf_counter() - start < 60.0


def test_criterion_3_reduction_preservation():
    with criterion(3, "every reduction step preserves consistency and reach"):
        programs = (
            [corpus.random_program(s) for s in range(12)]
            + corpus.loopy_programs()
            + [corpus.twin_write_loop()]
        )
        traces = list(graph_traces(programs))
        twin = corpus.twin_write_loop()
        traces += [(twin, corpus.twin_write_trace(r)) for r in (2, 3, 4)]
        n_pairs = 0
        for prog, tr in traces:
            target = final_vector(prog)
            before = reaches(tr.graph, prog, target)
            for first, second in collapsible_pairs(tr, prog):
                out = reduce(tr, prog, first, second)
                assert check_ra(out.graph).consistent
                assert reaches(out.graph, prog, target) == before
                assert len(out.graph.events) < len(tr.graph.events)
                n_pairs += 1
            fixed, _ = reduce_fixpoint(tr, prog)
            assert find_collapsible(fixed, prog) is None
            assert reaches(fixed.graph, prog, target) == before
        assert len(traces) == 166
        assert n_pairs == 276  # vacuity guard: the corpus does exercise reduce


def rmw_corpus():
    progs = list(corpus.loopy_rmw_programs())
    seed = 50
    while len(progs) < 12:
        prog = corpus.random_program(seed, rmw_prob=0.3)
        n_rmw = sum(
            1
            for lts in prog.threads.values()
            for _, lab, _ in lts.transitions
            if lab.op is Op.RMW
        )
        if 1 <= n_rmw <= 2:
            progs.append(prog)
        seed += 1
    return progs


def test_criterion_4_rmw_mode():
    with criterion(4, "update-event mode: no atomicity breaks, verdicts agree"):
        progs = rmw_corpus()
        n_pairs = 0
        for prog, tr in graph_traces(progs):
            for first, second in collapsible_pairs(tr, prog, rmw_mode=True):
                out = reduce(tr, prog, first, second, rmw_mode=True)
                verdict = check_ra(out.graph)
                assert verdict.axiom is not Axiom.ATOMICITY
                assert verdict.consistent
                n_pairs += 1
        assert n_pairs == 172
        budget = SearchConfig(ContextBudget(4, 4), event_cap=4)
        for prog in progs:
            truth = naive_reach(prog, 4)
            search = bounded_reach(prog, budget)
            assert truth.reachable == search.reachable


def test_criterion_5_bound_recurrence(mp_program):
    with criterion(5, "length bound matches the hand-coded recurrence"):
        tuples = [
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
        ]
        for s, n_locs, contexts, rmws in tuples:
            assert small_model_bound_formula(s, n_locs, contexts, rmws) == bound_oracle(
                s, n_locs, contexts, rmws
            )
        assert small_model_bound_formula(8, 1, 2, 0) == 160
        assert small_model_bound(mp_program, 2, 0) == 250272


def test_criterion_6_gadget_pipeline(pcp_inst):
    with criterion(6, "gadget compiles, witness consistent, audits clean"):
        start = time.perf_counter()
        gadget = compile_pcp(pcp_inst)
        assert len(gadget.threads) == 12
        assert len(gadget.locs) == 20
        trace = pcp_witness(pcp_inst, (1, 2))
        graph = trace.graph
        assert check_ra(graph).consistent
        words = {t: thread_word(graph, t) for t in gadget.threads}
        assert word_reaches(gadget, words, final_vector(gadget))
        assert check_no_skipping(graph).ok
        assert check_monotonicity(graph).ok
        assert time.perf_counter() - start < 10.0


def test_criterion_7_mutation_probe(long_witness):
    with criterion(7, "every index-breaking rf rewire is caught"):
        graph = long_witness.graph
        candidates = rf_rewire_candidates(graph)
        assert len(candidates) == 162
        assert len(candidates) >= 20
        for r, w in candidates:
            mutated = rewired(graph, r, w)
            assert not check_ra(mutated).consistent, f"rewire {r}->{w} slipped through"


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "identical seeded CLI runs are byte-identical"):
        mp_file = tmp_path / "mp.txt"
        mp_file.write_text(corpus.MP)
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text("pair a : aa\npair ab : b\n")

        def run(*argv):
            code = cli.main(list(argv))
            return code, capsys.readouterr().out

        invocations = [
            ("reach", str(mp_file), "--contexts", "2", "--seed", "3", "--json"),
            ("reach", str(mp_file), "--contexts", "1", "--seed", "3", "--json"),
            ("enumerate", str(mp_file), "--max-events", "4", "--json"),
            ("bound", "--program", str(mp_file), "--contexts", "2", "--json"),
            ("pcp", "witness", str(inst_file), "--solution", "1,2"),
            ("pcp", "compile", str(inst_file), "--json"),
        ]
        for argv in invocations:
            first = run(*argv)
            second = run(*argv)
            assert first == second, f"nondeterministic output: {argv}"
            json.loads(first[1])  # every compared payload is one JSON document
