"""Mutated input files through every verb: the exit code is a verdict or an input error, never a crash.

Each example takes a valid program, graph, trace or instance file, applies a
few random mutations (token and line edits on text; replaced, deleted or
copied entries on JSON), and runs the verbs that read that kind of file
through ``cli.main``.  The contract is the one the module docstring of
``rareach.cli`` states: exit 0, 1 or 2 for an answer, 64 or 65 for bad
usage or input, and never a traceback or an ``internal error`` (exit 70).
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rareach import cli
from rareach.decider import SearchConfig, bounded_reach
from rareach.model import parse_program
from rareach.pcp import PcpInstance, pcp_witness
from rareach.trace import ContextBudget

from tests import corpus
from tests.corpus import dump_graph_json, dump_trace_json

EXITS = {0, 1, 2, 64, 65}
INSTANCE = "pair a : aa\npair ab : b\n"
#: odd tokens spliced into text inputs next to the input's own tokens
ODD = ["-1", "0", "99999999999", "", ":", "#", "init", "final", "thread", "w", "r", "rmw", "x", "pair", "{", "]", "null"]

#: a thread over x and 0 that no trace of the corpus runs
IDLE = "thread idle init p0 final p1\n  p0 p1 w x 0\n"

FUZZ = settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])


def mp_witness():
    """MP's witness.  Inputs the engine builds go in st.deferred, built when a test draws them: in a
    @given argument they would be built at collection, where an engine fault fails the whole module."""
    return bounded_reach(corpus.mp(), SearchConfig(ContextBudget(2, 0))).witness


# --- mutations ---------------------------------------------------------------------


@st.composite
def mutated_text(draw, text: str) -> str:
    """``text`` after one to three token or line edits, drawing tokens from it and from ``ODD``."""
    lines = [line.split(" ") for line in text.split("\n")]
    pool = sorted({tok for line in lines for tok in line} | set(ODD))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "drop-line", "copy-line", "cut"]))
        if edit == "replace" and j < len(lines[i]):
            lines[i][j] = draw(st.sampled_from(pool))
        elif edit == "insert":
            lines[i].insert(j, draw(st.sampled_from(pool)))
        elif edit == "delete" and j < len(lines[i]):
            del lines[i][j]
        elif edit == "drop-line" and len(lines) > 1:
            del lines[i]
        elif edit == "copy-line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif edit == "cut":
            lines[i] = lines[i][:j]
    return "\n".join(" ".join(line) for line in lines)


def _slots(node, out):
    """Every (container, key) pair of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def mutated_json(draw, text: str) -> str:
    """``text`` parsed, one to three entries replaced, deleted or copied from elsewhere, and dumped."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        edit = draw(st.sampled_from(["copy", "odd", "delete"]))
        if edit == "copy":  # another entry's value: an id, a label or a row that is valid elsewhere
            other, okey = draw(st.sampled_from(slots))
            node[key] = copy.deepcopy(other[okey])
        elif edit == "odd":
            node[key] = draw(st.one_of(st.none(), st.booleans(), st.integers(-2, 50), st.sampled_from(ODD), st.just([])))
        elif isinstance(node, list):
            node.pop(key)
        else:
            del node[key]
    return json.dumps(doc)


@st.composite
def with_empty_run(draw, text: str, program: str) -> str:
    """``text``, a trace, with an empty run of a thread of ``program`` put among its runs."""
    doc = json.loads(text)
    tid = draw(st.sampled_from(sorted(parse_program(program).threads)))
    doc["runs"].insert(draw(st.integers(0, len(doc["runs"]))), {"tid": tid, "events": []})
    return json.dumps(doc)


def mutated(text: str, is_json: bool = False):
    return st.one_of(mutated_json(text), mutated_text(text)) if is_json else mutated_text(text)


# --- running the verbs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def put(work, name: str, text: str) -> str:
    path = work / name
    path.write_text(text)
    return str(path)


def run_verbs(*argvs):
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in EXITS, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), (argv, err.getvalue())


class TestFuzzVerbs:
    @FUZZ
    @given(st.sampled_from([corpus.MP, corpus.TWIN_WRITE_LOOP, corpus.UPDATE_CHAIN]).flatmap(mutated))
    def test_program(self, work, text):
        prog = put(work, "prog.txt", text)
        trace = put(work, "twin.json", dump_trace_json(corpus.twin_write_trace(2)))
        run_verbs(
            ["reach", prog, "--contexts", "2", "--rmws", "1", "--event-cap", "4", "--max-nodes", "300", "--json"],
            ["reach", prog, "--naive", "--event-cap", "2"],
            ["enumerate", prog, "--max-events", "2", "--limit", "5"],
            ["bound", "--program", prog, "--contexts", "3", "--json"],
            ["reduce", trace, "--program", prog, "--fixpoint"],
        )

    @FUZZ
    @given(st.deferred(lambda: mutated(dump_graph_json(mp_witness().graph), is_json=True)))
    def test_graph(self, work, text):
        graph = put(work, "graph.json", text)
        run_verbs(["check", graph, "--json"], ["pcp", "audit", graph, "--json"])

    @FUZZ
    @given(
        st.deferred(lambda: st.sampled_from(
            [(dump_trace_json(corpus.twin_write_trace(2)), corpus.TWIN_WRITE_LOOP), (dump_trace_json(mp_witness()), corpus.MP)]
        )).flatmap(lambda case: st.tuples(mutated(case[0], is_json=True), st.just(case[1])))
    )
    def test_trace(self, work, case):
        trace, prog = put(work, "trace.json", case[0]), put(work, "trace-prog.txt", case[1])
        run_verbs(
            ["trace-validate", trace, "--json"],
            ["reduce", trace, "--program", prog, "--fixpoint", "--json"],
            ["reduce", trace, "--program", prog, "--rmw"],
        )

    @FUZZ
    @given(
        st.deferred(lambda: st.sampled_from(
            [(dump_trace_json(corpus.twin_write_trace(2)), corpus.TWIN_WRITE_LOOP + IDLE), (dump_trace_json(mp_witness()), corpus.MP + IDLE)]
        )).flatmap(
            lambda case: st.tuples(
                with_empty_run(*case).flatmap(lambda t: st.one_of(st.just(t), mutated(t, is_json=True))), st.just(case[1])
            )
        )
    )
    def test_trace_with_empty_run(self, work, case):
        """As ``test_trace``, on traces given an empty run of a program thread, which may have no events."""
        trace, prog = put(work, "trace.json", case[0]), put(work, "trace-prog.txt", case[1])
        run_verbs(
            ["trace-validate", trace, "--json"],
            ["reduce", trace, "--program", prog, "--fixpoint", "--json"],
            ["reduce", trace, "--program", prog, "--rmw"],
        )

    @FUZZ
    @given(mutated(INSTANCE))
    def test_instance(self, work, text):
        inst = put(work, "inst.txt", text)
        run_verbs(
            ["pcp", "compile", inst],
            ["pcp", "compile", inst, "--json"],
            ["pcp", "witness", inst, "--solution", "1,2", "--check"],
        )

    @FUZZ
    @given(st.deferred(lambda: mutated(dump_graph_json(pcp_witness(PcpInstance((("a", "aa"), ("ab", "b"))), (1, 2)).graph), is_json=True)))
    def test_gadget_graph(self, work, text):
        run_verbs(["pcp", "audit", put(work, "witness.json", text)])
