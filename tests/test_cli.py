"""End-to-end command line tests: every verb, exit code and output mode."""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import rareach
from rareach import cli
from rareach.consistency import Axiom, Verdict
from rareach.decider import enumerate_graphs
from rareach.graph import build_graph, graph_to_json, to_dot
from rareach.model import INIT_TID, parse_program, read, serialize_program, write
from rareach.pcp import AuditReport
from rareach.reduction import small_model_bound
from rareach.trace import ContextBudget, Run, load_trace_json, make_trace, trace_to_json

from tests import corpus
from tests.corpus import MP_LOOP, dump_graph_json, dump_trace_json
from tests.test_consistency import mixed_id_read_coherence_graph
from tests.test_reduction import random_runs

INSTANCE = "pair a : aa\npair ab : b\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture()
def mp_file(tmp_path):
    p = tmp_path / "mp.txt"
    p.write_text(corpus.MP)
    return str(p)


@pytest.fixture()
def twin_trace_file(tmp_path):
    p = tmp_path / "twin.json"
    p.write_text(dump_trace_json(corpus.twin_write_trace(2)))
    return str(p)


@pytest.fixture()
def twin_prog_file(tmp_path):
    p = tmp_path / "twin.txt"
    p.write_text(corpus.TWIN_WRITE_LOOP)
    return str(p)


@pytest.fixture()
def inst_file(tmp_path):
    p = tmp_path / "inst.txt"
    p.write_text(INSTANCE)
    return str(p)


def cycle_graph():
    events = [
        (0, read("t", "x", "1")),
        (1, write("t", "y", "1")),
        (2, read("u", "y", "1")),
        (3, write("u", "x", "1")),
    ]
    return build_graph(
        events, {0: 3, 2: 1}, {"x": [3], "y": [1]}
    )


class TestCheck:
    def test_consistent(self, capsys, tmp_path, twin_trace_file):
        g = tmp_path / "g.json"
        g.write_text(dump_graph_json(corpus.twin_write_trace(2).graph))
        code, out, _ = run(capsys, "check", str(g))
        assert (code, out) == (0, "consistent\n")

    def test_json_flag(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(dump_graph_json(corpus.twin_write_trace(2).graph))
        code, out, _ = run(capsys, "check", str(g), "--json")
        assert code == 0
        assert json.loads(out) == {"status": "consistent"}

    def test_violation_always_prints_json(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(dump_graph_json(cycle_graph()))
        code, out, _ = run(capsys, "check", str(g))
        assert code == 1
        assert json.loads(out)["axiom"] == "irr-hb"

    def test_dot_output(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(dump_graph_json(corpus.twin_write_trace(2).graph))
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "check", str(g), "--dot", str(dot))
        assert code == 0
        assert '"e1"' in dot.read_text()

    def test_least_witness_among_mixed_ids(self, capsys, tmp_path):
        # ints order before strings
        g = tmp_path / "g.json"
        g.write_text(dump_graph_json(mixed_id_read_coherence_graph()))
        code, out, _ = run(capsys, "check", str(g))
        assert code == 1
        assert json.loads(out) == {"status": "violation", "axiom": "read-coherence", "witness": [0, "b", "a"]}

    def test_write_without_value(self, capsys, tmp_path):
        blob = json.loads(dump_graph_json(corpus.twin_write_trace(2).graph))
        next(ev for ev in blob["events"] if ev["op"] == "w" and ev["tid"] != INIT_TID)["valW"] = None
        g = tmp_path / "g.json"
        g.write_text(json.dumps(blob))
        assert run(capsys, "check", str(g)) == (65, "", "ra-reach: error: bad graph JSON: w label needs val_w\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 65 and "error" in err

    def test_garbage_json(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text("{not json")
        assert run(capsys, "check", str(g))[0] == 65


class TestTraceValidate:
    def test_valid(self, capsys, twin_trace_file):
        code, out, _ = run(capsys, "trace-validate", twin_trace_file)
        assert (code, out) == (0, "valid: 4 events in 1 runs\n")

    def test_valid_json(self, capsys, twin_trace_file):
        code, out, _ = run(capsys, "trace-validate", twin_trace_file, "--json")
        assert code == 0
        assert json.loads(out) == {"status": "valid", "runs": 1, "events": 4}

    def test_invalid_partition(self, capsys, tmp_path):
        blob = trace_to_json(corpus.twin_write_trace(2))
        blob["runs"][0]["events"] = blob["runs"][0]["events"][:-1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "trace-validate", str(p))
        assert code == 1 and out.startswith("invalid:")

    def test_invalid_json_report(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        code, out, _ = run(capsys, "trace-validate", str(p), "--json")
        assert code == 1
        assert json.loads(out)["status"] == "invalid"

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        assert run(capsys, "trace-validate", str(tmp_path / "nope"))[0] == 65


class TestReduce:
    def test_single_step(self, capsys, twin_trace_file, twin_prog_file):
        code, out, _ = run(capsys, "reduce", twin_trace_file, "--program", twin_prog_file)
        assert code == 0
        head, _, rest = out.partition("\n")
        assert head == "collapsed (e1, e3]: removed 2 events, rewired 1 reads, transposed mo on nothing"
        tr = load_trace_json(rest)
        assert tr.pi == ("e1", "e4")

    def test_fixpoint(self, capsys, tmp_path, twin_prog_file):
        p = tmp_path / "t4.json"
        p.write_text(dump_trace_json(corpus.twin_write_trace(4)))
        code, out, _ = run(capsys, "reduce", str(p), "--fixpoint", "--program", twin_prog_file)
        assert code == 0
        assert out.count("collapsed") == 3

    def test_json_bundle(self, capsys, twin_trace_file, twin_prog_file):
        code, out, _ = run(
            capsys, "reduce", twin_trace_file, "--json", "--program", twin_prog_file
        )
        assert code == 0
        bundle = json.loads(out)
        assert set(bundle) == {"trace", "steps", "irreducible"}
        (step,) = bundle["steps"]
        assert step["first"] == "e1" and step["second"] == "e3"
        assert step["removed"] == ["e2", "e3"]
        assert step["rfRewires"] == [["e4", "e3", "e1"]]
        assert step["moSwaps"] == []  # the transposed write is itself removed

    def test_irreducible(self, capsys, tmp_path, twin_prog_file):
        p = tmp_path / "t1.json"
        p.write_text(dump_trace_json(corpus.twin_write_trace(1)))
        code, out, _ = run(capsys, "reduce", str(p), "--program", twin_prog_file)
        assert code == 0
        assert out.startswith("irreducible: no collapsible pair\n")

    @pytest.mark.parametrize(
        "flags,head", [([], "collapsed (1, 3]: removed 2 events"), (["--rmw"], "irreducible: no collapsible pair")]
    )
    def test_removed_update_read_later_in_the_run(self, capsys, tmp_path, flags, head):
        # run 1, 2, 3 of t0: update 2 is read by 3, and plain latest writes skip
        # updates, so (1, 2] would leave 3 without a writer to rewire onto
        prog = corpus.random_program(4, rmw_prob=0.3)
        trace, program = tmp_path / "upd.json", tmp_path / "upd.txt"
        graph = next(islice(enumerate_graphs(prog, 5), 3, None))
        trace.write_text(dump_trace_json(random_runs(graph, random.Random(0))))
        program.write_text(serialize_program(prog))
        code, out, err = run(capsys, "reduce", str(trace), "--program", str(program), *flags)
        assert (code, err) == (0, "")
        assert out.startswith(head)

    def test_mo_swap(self, capsys, tmp_path):
        trace, program = tmp_path / "t.json", tmp_path / "p.txt"
        trace.write_text(mo_swap_trace())
        program.write_text(MO_SWAP)
        code, out, _ = run(capsys, "reduce", str(trace), "--program", str(program), "--json")
        bundle = json.loads(out)
        assert code == 0
        (step,) = bundle["steps"]
        assert (step["moSwaps"], step["removed"]) == (["x"], [2])
        assert bundle["trace"]["graph"]["mo"] == {"x": [0, 3, 1]}
        code, out, _ = run(capsys, "reduce", str(trace), "--program", str(program))
        assert code == 0
        assert out.startswith("collapsed (1, 2]: removed 1 events, rewired 0 reads, transposed mo on ['x']\n")

    def test_output_file(self, capsys, tmp_path, twin_trace_file, twin_prog_file):
        dst = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "reduce", twin_trace_file, "--program", twin_prog_file, "-o", str(dst)
        )
        assert code == 0
        assert "collapsed" in out and "{" not in out
        assert load_trace_json(dst.read_text()).pi == ("e1", "e4")

    def test_dot_output(self, capsys, tmp_path, twin_trace_file, twin_prog_file):
        dot = tmp_path / "r.dot"
        code, out, _ = run(capsys, "reduce", twin_trace_file, "--program", twin_prog_file, "--dot", str(dot))
        assert code == 0
        assert dot.read_text() == to_dot(load_trace_json(out.partition("\n")[2]).graph)

    def test_program_flag_required(self, capsys, twin_trace_file):
        with pytest.raises(SystemExit) as ei:
            cli.main(["reduce", twin_trace_file])
        assert ei.value.code == 64


# The benchmark's reduce-fixpoint loop programs, unrenamed.
TWIN_LOOP = """
locs x
vals 0 1
init x=0
thread t init q0 final q0
  q0 q1 w x 1
  q1 q0 r x 1
"""

PRODUCER_CONSUMER = """
locs x y
vals 0 1
init x=0 y=0
thread p init q0 final q0
  q0 q1 w x 1
  q1 q0 r y 0
thread c init s0 final s0
  s0 s1 r x 1
  s1 s0 w y 0
"""


def loop_trace(text, order, rounds):
    """Trace JSON running each thread's two-transition loop ``rounds`` times, one run per thread.

    Threads run in ``order``; a read takes the latest write to its location
    by its own thread, else the last write of an earlier thread, else init.
    """
    prog = parse_program(text)
    events, mo, rf, runs = [], {}, [], []
    for x in sorted(prog.locs):
        mo[x] = [len(events)]
        events.append({"id": len(events), "tid": "init", "op": "w", "loc": x, "valR": None, "valW": prog.init_vals[x]})
    last = {}
    for tid in order:
        lts = prog.threads[tid]
        loop = sorted(lts.transitions, key=lambda tr: tr[0] != lts.init)
        run = []
        for _ in range(rounds):
            for _, lab, _ in loop:
                eid, x = len(events), lab.loc
                events.append({"id": eid, "tid": tid, "op": lab.op.value, "loc": x, "valR": lab.val_r, "valW": lab.val_w})
                if lab.op.writes:
                    mo[x].append(eid)
                    last[(tid, x)] = eid
                else:
                    writers = [last[(t, x)] for t in (tid, *reversed(order)) if (t, x) in last]
                    rf.append([eid, writers[0] if writers else mo[x][0]])
                run.append(eid)
        runs.append({"tid": tid, "events": run})
    return json.dumps({"graph": {"events": events, "rf": rf, "mo": mo}, "runs": runs})


#: two threads writing x; the trace runs a's two writes, then b's, with b's
#: write mo-between them, so collapsing a's pair transposes mo on x
MO_SWAP = """
locs x
vals 0 1 2
thread a init a0 final a0
  a0 a0 w x 1
thread b init b0 final b1
  b0 b1 w x 2
"""


def mo_swap_trace():
    """Trace JSON of ``MO_SWAP``: events 1, 2 are a's writes, 3 is b's; mo x is 0, 1, 3, 2."""
    events = [{"id": e, "tid": t, "op": "w", "loc": "x", "valR": None, "valW": v}
              for e, t, v in ((0, "init", "0"), (1, "a", "1"), (2, "a", "1"), (3, "b", "2"))]
    runs = [{"tid": "a", "events": [1, 2]}, {"tid": "b", "events": [3]}]
    return json.dumps({"graph": {"events": events, "rf": [], "mo": {"x": [0, 1, 3, 2]}}, "runs": runs})

class TestReducePinned:
    """``reduce`` stdout and exit code, pinned by sha256 over every flag combination."""

    FLAGS = [
        [],
        ["--fixpoint"],
        ["--json"],
        ["--rmw"],
        ["--fixpoint", "--json"],
        ["--fixpoint", "--rmw"],
        ["--json", "--rmw"],
        ["--fixpoint", "--json", "--rmw"],
    ]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """input name -> (trace file, program file)"""
        d = tmp_path_factory.mktemp("pinned")
        files = {}
        for name, text, order, rounds in (
            ("twin", TWIN_LOOP, ["t"], 100),
            ("producer-consumer", PRODUCER_CONSUMER, ["p", "c"], 40),
        ):
            (d / f"{name}.txt").write_text(text)
            (d / f"{name}.json").write_text(loop_trace(text, order, rounds))
            files[name] = (str(d / f"{name}.json"), str(d / f"{name}.txt"))
        inst = d / "inst.txt"
        inst.write_text(INSTANCE)
        gadget, witness = str(d / "gadget.txt"), str(d / "witness.json")
        assert cli.main(["pcp", "compile", str(inst), "-o", gadget]) == 0
        assert cli.main(["pcp", "witness", str(inst), "--solution", "1,2,1,2", "-o", witness]) == 0
        files["witness"] = (witness, gadget)
        # an empty run between two halves of one thread's loop
        blob = trace_to_json(corpus.twin_write_trace(4))
        events = blob["runs"][0]["events"]
        blob["runs"] = [{"tid": "t", "events": events[:4]}, {"tid": "t", "events": []}, {"tid": "t", "events": events[4:]}]
        (d / "empty-run.json").write_text(json.dumps(blob))
        (d / "twin-write.txt").write_text(corpus.TWIN_WRITE_LOOP)
        files["empty-run"] = (str(d / "empty-run.json"), str(d / "twin-write.txt"))
        (d / "mo-swap.json").write_text(mo_swap_trace())
        (d / "mo-swap.txt").write_text(MO_SWAP)
        files["mo-swap"] = (str(d / "mo-swap.json"), str(d / "mo-swap.txt"))
        return files

    @staticmethod
    def digests(capsys, inputs, name):
        trace, program = inputs[name]
        out = []
        for flags in TestReducePinned.FLAGS:
            code, stdout, _ = run(capsys, "reduce", trace, "--program", program, *flags)
            out.append(hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16])
        return out

    @pytest.mark.parametrize(
        "name,want",
        [
            ("twin", [
                "ec74f39a11752bbd", "a8abc4bc1d400494", "13c1923717ec96ae", "ec74f39a11752bbd",
                "523d2d546cc18261", "a8abc4bc1d400494", "13c1923717ec96ae", "523d2d546cc18261",
            ]),
            ("producer-consumer", [
                "28bcd7488a519feb", "17a4d61cec514f78", "eb9200a1c7036896", "28bcd7488a519feb",
                "adfd3779dfc0b782", "17a4d61cec514f78", "eb9200a1c7036896", "adfd3779dfc0b782",
            ]),
            ("witness", [
                "f582b60d174e44a6", "f582b60d174e44a6", "a79cb83b4db47b86", "f582b60d174e44a6",
                "a79cb83b4db47b86", "f582b60d174e44a6", "a79cb83b4db47b86", "a79cb83b4db47b86",
            ]),
            ("empty-run", [
                "3e4e81114401e642", "2010e2684ce5318d", "bfe9d7f91ce7d57f", "3e4e81114401e642",
                "658ad43f092e824e", "2010e2684ce5318d", "bfe9d7f91ce7d57f", "658ad43f092e824e",
            ]),
            ("mo-swap", [
                "25e7cb543e1e9d90", "25e7cb543e1e9d90", "6b76568549049b40", "25e7cb543e1e9d90",
                "f550e45160717aa1", "25e7cb543e1e9d90", "6b76568549049b40", "f550e45160717aa1",
            ]),
        ],
    )
    def test_pinned_bytes(self, capsys, inputs, name, want):
        assert self.digests(capsys, inputs, name) == want


class TestPinnedOutput:
    """DOT and ``enumerate --json`` bytes and exit codes, pinned by sha256."""

    @staticmethod
    def digest(code, *texts):
        return hashlib.sha256("\n".join([str(code), *texts]).encode()).hexdigest()[:16]

    def test_check_dot_on_witness(self, capsys, tmp_path, inst_file):
        trace, graph, dot = tmp_path / "w.json", tmp_path / "g.json", tmp_path / "g.dot"
        assert run(capsys, "pcp", "witness", inst_file, "--solution", "1,2,1,2", "-o", str(trace))[0] == 0
        graph.write_text(json.dumps(json.loads(trace.read_text())["graph"]))
        code, out, _ = run(capsys, "check", str(graph), "--dot", str(dot))
        assert self.digest(code, out, dot.read_text()) == "72028e740987ccd2"

    def test_reach_json_dot_on_update_wedge(self, capsys, tmp_path):
        prog, dot = tmp_path / "p.txt", tmp_path / "w.dot"
        prog.write_text(corpus.UPDATE_WEDGE)
        code, out, _ = run(capsys, "reach", str(prog), "--contexts", "2", "--rmws", "2", "--json", "--dot", str(dot))
        assert self.digest(code, out, dot.read_text()) == "127e4aec344d04f9"

    @pytest.mark.parametrize("text,want", [(corpus.MP, "aa4208901c6679af"), (corpus.LOOPY_RMW[1], "54770075d9ce4638")])
    def test_enumerate_json(self, capsys, tmp_path, text, want):
        prog = tmp_path / "p.txt"
        prog.write_text(text)
        code, out, _ = run(capsys, "enumerate", str(prog), "--max-events", "4", "--json")
        assert self.digest(code, out) == want


#: per program of criterion 4's corpus: the event count the naive-enum benchmark
#: enumerates it at, and the digest of ``enumerate --json`` and ``reach --naive --json``
NAIVE_PINS = [
    (5, "95e87905456baebe"),
    (4, "096421f5191a960a"),
    (5, "ef358aee994e48de"),
    (5, "bd359704c2a0f851"),
    (5, "5e8f705a3686220b"),
    (5, "a017bead2138925d"),
    (4, "013e357873138b05"),
    (5, "de820ed243e05bff"),
    (5, "fb5820383cb59684"),
    (5, "606ca6600b3ba36b"),
    (5, "08fc80964e683219"),
    (5, "ed735cd692bace80"),
]


class TestPinnedNaiveEnum:
    """The naive enumerator's output bytes on criterion 4's corpus, unrenamed, pinned by sha256."""

    @pytest.mark.parametrize("i", range(len(NAIVE_PINS)))
    def test_enumerate_and_naive_reach_json(self, capsys, tmp_path, i):
        from tests.test_acceptance import rmw_corpus

        events, want = NAIVE_PINS[i]
        prog = tmp_path / "p.txt"
        prog.write_text(serialize_program(rmw_corpus()[i]))
        cap = str(min(events, 4))
        enum = run(capsys, "enumerate", str(prog), "--max-events", str(events), "--json")
        naive = run(capsys, "reach", str(prog), "--naive", "--contexts", cap, "--event-cap", cap, "--json")
        assert TestPinnedOutput.digest(enum[0], enum[1], str(naive[0]), naive[1]) == want


class TestReach:
    def test_reachable(self, capsys, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "2")
        assert code == 0
        assert out == "reachable (visited 5, pruned 0, max events 4)\n"

    def test_unreachable(self, capsys, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "1")
        assert code == 1 and out.startswith("unreachable-within-bound")

    def test_huge_budget_without_a_cap(self, capsys, mp_file):
        # the bound stops summing past a ceiling no search reaches instead of summing a million contexts
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "1000000")
        assert (code, out) == (0, "reachable (visited 5, pruned 0, max events 4)\n")

    def test_inconclusive(self, capsys, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "2", "--event-cap", "1")
        assert code == 2 and out.startswith("inconclusive")

    def test_naive(self, capsys, mp_file):
        code, _, _ = run(capsys, "reach", mp_file, "--contexts", "2", "--naive", "--event-cap", "4")
        assert code == 0

    def test_json_deterministic(self, capsys, mp_file):
        a = run(capsys, "reach", mp_file, "--contexts", "2", "--json")
        b = run(capsys, "reach", mp_file, "--contexts", "2", "--json")
        assert a == b
        blob = json.loads(a[1])
        assert blob["status"] == "reachable"
        assert blob["stats"] == {"visited": 5, "prunes": 0, "maxEvents": 4}
        assert blob["witness"] is not None

    def test_skips_repeated_states(self, capsys, tmp_path):
        prog = tmp_path / "mp_loop.txt"
        prog.write_text(MP_LOOP)
        code, out, _ = run(capsys, "reach", str(prog), "--contexts", "2", "--event-cap", "13", "--json")
        assert code == 2
        assert json.loads(out)["stats"] == {"visited": 519, "prunes": 701, "maxEvents": 13}

    def test_emit_witness(self, capsys, tmp_path, mp_file):
        dst = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "reach", mp_file, "--contexts", "2", "--emit-witness", str(dst)
        )
        assert code == 0
        assert ContextBudget(2, 0).admits(load_trace_json(dst.read_text()))

    def test_contexts_required(self, capsys, mp_file):
        code, _, err = run(capsys, "reach", mp_file)
        assert code == 64 and "--contexts" in err

    def test_config_presets_and_override(self, capsys, tmp_path, mp_file):
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text("# defaults\ncontexts=1\nrmws=0\nseed=0\n")
        assert run(capsys, "reach", mp_file, "--config", str(cfgf))[0] == 1
        code, out, _ = run(
            capsys, "reach", mp_file, "--config", str(cfgf), "--contexts", "2"
        )
        assert code == 0 and out.startswith("reachable")

    def test_bad_config(self, capsys, tmp_path, mp_file):
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text("contexts=two\n")
        assert run(capsys, "reach", mp_file, "--config", str(cfgf))[0] == 65
        cfgf.write_text("depth=3\n")
        assert run(capsys, "reach", mp_file, "--config", str(cfgf))[0] == 65

    def test_bad_program(self, capsys, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("locs x\nthread t init q0 final q0\n  q0 q1 blorp x 1\n")
        assert run(capsys, "reach", str(p), "--contexts", "1")[0] == 65


class TestHitChecks:
    def test_hit_checks_survive_python_O(self, mp_file):
        planted = (
            "import sys\n"
            "from rareach import cli, decider\n"
            "from rareach.consistency import Verdict\n"
            "decider.check_ra = lambda g: Verdict(consistent=False, axiom=None, witness=None)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rareach.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", planted, "reach", mp_file, "--contexts", "2"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 70 and proc.stdout == ""
        assert proc.stderr.startswith("ra-reach: internal error:") and proc.stderr.count("\n") == 1


class TestNodeBudget:
    @pytest.fixture()
    def loop_file(self, tmp_path):
        p = tmp_path / "mp_loop.txt"
        p.write_text(MP_LOOP)
        return str(p)

    def test_uncapped_loop_stops_inconclusive(self, capsys, loop_file):
        # the 200 nodes entered include the covered ones skipped, which add nothing to visited
        code, out, err = run(capsys, "reach", loop_file, "--contexts", "2", "--max-nodes", "200", "--json")
        assert (code, err) == (2, "")
        blob = json.loads(out)
        assert (blob["status"], blob["stats"]["visited"], blob["witness"]) == ("inconclusive", 28, None)

    def test_config_key_and_human_output(self, capsys, tmp_path, mp_file):
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text("contexts=2\nmax-nodes=3\n")
        code, out, _ = run(capsys, "reach", mp_file, "--config", str(cfgf))
        assert (code, out) == (2, "inconclusive (visited 3, pruned 0, max events 2)\n")
        code, out, _ = run(capsys, "reach", mp_file, "--config", str(cfgf), "--max-nodes", "5")
        assert (code, out) == (0, "reachable (visited 5, pruned 0, max events 4)\n")

    def test_below_one_exits_64(self, capsys, tmp_path, mp_file):
        code, out, err = run(capsys, "reach", mp_file, "--contexts", "2", "--max-nodes", "0")
        assert (code, out, err) == (64, "", "ra-reach: error: --max-nodes must be at least 1, got 0\n")
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text("contexts=2\nmax-nodes=-4\n")
        assert run(capsys, "reach", mp_file, "--config", str(cfgf))[0] == 64


class TestEnumerate:
    def test_human(self, capsys, mp_file):
        code, out, _ = run(capsys, "enumerate", mp_file, "--max-events", "4")
        assert code == 0
        assert out.rstrip().endswith("5 consistent graphs")

    def test_json_and_limit(self, capsys, mp_file):
        code, out, _ = run(capsys, "enumerate", mp_file, "--max-events", "4", "--json")
        blob = json.loads(out)
        assert code == 0 and blob["count"] == 5 and len(blob["graphs"]) == 5
        code, out, _ = run(capsys, "enumerate", mp_file, "--max-events", "4", "--limit", "2")
        assert code == 0 and "2 consistent graphs" in out
        code, out, _ = run(capsys, "enumerate", mp_file, "--max-events", "4", "--limit", "0", "--json")
        assert code == 0 and json.loads(out) == {"count": 0, "graphs": []}

    @pytest.mark.parametrize("limit", [[], ["--limit", "0"], ["--limit", "1"], ["--limit", "3"]])
    def test_json_is_the_whole_document_dumped_at_once(self, capsys, tmp_path, limit):
        # the graphs' texts are set into the document one by one; the bytes are json.dumps' of the whole
        for i, text in enumerate([corpus.MP, *corpus.LOOPY_RMW]):
            prog = tmp_path / f"p{i}.txt"
            prog.write_text(text)
            code, out, _ = run(capsys, "enumerate", str(prog), "--max-events", "4", "--json", *limit)
            graphs = list(islice(enumerate_graphs(parse_program(text), 4), int(limit[1]) if limit else None))
            doc = {"count": len(graphs), "graphs": [graph_to_json(g) for g in graphs]}
            assert (code, out) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def test_max_events_required(self, capsys, mp_file):
        with pytest.raises(SystemExit) as ei:
            cli.main(["enumerate", mp_file])
        assert ei.value.code == 64


class TestBound:
    def test_plain(self, capsys, mp_file):
        code, out, _ = run(capsys, "bound", "--program", mp_file, "--contexts", "2")
        assert (code, out) == (0, "250272\n")

    def test_json(self, capsys, mp_file):
        code, out, _ = run(
            capsys, "bound", "--program", mp_file, "--contexts", "2", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"bound": 250272, "contexts": 2, "rmws": 0}

    def test_config(self, capsys, tmp_path, mp_file):
        cfgf = tmp_path / "b.cfg"
        cfgf.write_text("contexts=2\n")
        code, out, _ = run(capsys, "bound", "--program", mp_file, "--config", str(cfgf))
        assert (code, out) == (0, "250272\n")

    def test_contexts_required(self, capsys, mp_file):
        assert run(capsys, "bound", "--program", mp_file)[0] == 64

    def test_exact_past_the_digit_limit(self, capsys, mp_file):
        limit = sys.get_int_max_str_digits()
        value = small_model_bound(corpus.mp(), 3000, 0)
        plain = run(capsys, "bound", "--program", mp_file, "--contexts", "3000")
        as_json = run(capsys, "bound", "--program", mp_file, "--contexts", "3000", "--json")
        assert sys.get_int_max_str_digits() == limit  # restored for in-process callers
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(value)) > limit
            assert plain == (0, f"{value}\n", "")
            assert as_json[0] == 0 and json.loads(as_json[1]) == {"bound": value, "contexts": 3000, "rmws": 0}
        finally:
            sys.set_int_max_str_digits(limit)

    def test_past_the_digit_ceiling_exits_65(self, capsys, mp_file):
        # refused before anything quadratic in the digits runs
        code, out, err = run(capsys, "bound", "--program", mp_file, "--contexts", "1000000")
        assert (code, out, err) == (65, "", "ra-reach: error: the bound at 1000000 contexts has more than 100,000 digits\n")

    def test_digit_ceiling_is_exact(self, capsys, monkeypatch, mp_file):
        monkeypatch.setattr(cli, "BOUND_MAX_DIGITS", 6)  # the bound at 2 contexts, 250272, has 6 digits
        assert run(capsys, "bound", "--program", mp_file, "--contexts", "2")[:2] == (0, "250272\n")
        monkeypatch.setattr(cli, "BOUND_MAX_DIGITS", 5)
        assert run(capsys, "bound", "--program", mp_file, "--contexts", "2")[0] == 65


class TestPcp:
    def test_compile_text(self, capsys, inst_file):
        code, out, _ = run(capsys, "pcp", "compile", inst_file)
        assert code == 0
        assert len(parse_program(out).threads) == 12

    def test_compile_json(self, capsys, inst_file):
        code, out, _ = run(capsys, "pcp", "compile", inst_file, "--json")
        blob = json.loads(out)
        assert code == 0
        assert set(blob) == {"program", "roles", "locRoles", "bridgeLocs"}
        assert blob["bridgeLocs"] == ["cross_a", "cross_b", "ell_a", "ell_b"]

    def test_witness(self, capsys, inst_file):
        code, out, _ = run(capsys, "pcp", "witness", inst_file, "--solution", "1,2")
        assert code == 0
        assert len(load_trace_json(out).graph.events) == 202

    def test_witness_dot_output(self, capsys, tmp_path, inst_file):
        dot = tmp_path / "w.dot"
        code, out, _ = run(capsys, "pcp", "witness", inst_file, "--solution", "1,2", "--dot", str(dot))
        assert code == 0
        assert dot.read_text() == to_dot(load_trace_json(out).graph)

    def test_witness_check_passes(self, capsys, inst_file):
        assert run(capsys, "pcp", "witness", inst_file, "--solution", "1,2", "--check")[0] == 0

    def test_witness_rejects_non_solution(self, capsys, inst_file):
        code, _, err = run(capsys, "pcp", "witness", inst_file, "--solution", "2,1")
        assert code == 65 and "error" in err

    def test_witness_bad_solution_syntax(self, capsys, inst_file):
        assert run(capsys, "pcp", "witness", inst_file, "--solution", "1,x")[0] == 65

    def test_witness_check_failure_is_internal(self, capsys, inst_file, monkeypatch):
        broken = Verdict(consistent=False, axiom=None, witness=None)
        monkeypatch.setattr(cli, "check_ra", lambda g: broken)
        code, _, err = run(capsys, "pcp", "witness", inst_file, "--solution", "1,2", "--check")
        assert code == 70 and "internal error" in err

    def test_witness_check_failure_names_the_axiom_and_witness(self, capsys, inst_file, monkeypatch):
        monkeypatch.setattr(cli, "check_ra", lambda g: Verdict(False, Axiom.IRR_HB, (3,)))
        code, out, err = run(capsys, "pcp", "witness", inst_file, "--solution", "1,2", "--check")
        assert (code, out) == (70, "")
        assert err == "ra-reach: internal error: witness fails irr-hb at (3,)\n"

    @pytest.mark.parametrize("audit,fails", [("check_no_skipping", "skips"), ("check_monotonicity", "not monotone")])
    def test_witness_audit_failure_names_the_first_violation(self, capsys, tmp_path, inst_file, monkeypatch, audit, fails):
        monkeypatch.setattr(cli, audit, lambda g: AuditReport(False, ("first", "second")))
        out = tmp_path / "w.json"
        code, stdout, err = run(capsys, "pcp", "witness", inst_file, "--solution", "1,2", "--check", "-o", str(out))
        assert (code, stdout) == (70, "")
        assert err == f"ra-reach: internal error: witness {fails}: first\n"
        assert not out.exists()

    def test_witness_check_survives_python_O(self, tmp_path, inst_file):
        out = tmp_path / "w.json"
        planted = (
            "import sys\n"
            "from rareach import cli\n"
            "from rareach.consistency import Verdict\n"
            "cli.check_ra = lambda g: Verdict(consistent=False, axiom=None, witness=None)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rareach.__file__).parents[1])}
        argv = ["pcp", "witness", inst_file, "--solution", "1,2", "--check", "-o", str(out)]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", planted, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 70 and proc.stdout == ""
        assert proc.stderr.startswith("ra-reach: internal error:") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_audit_ok(self, capsys, tmp_path, inst_file):
        from rareach.pcp import PcpInstance, pcp_witness

        g = tmp_path / "w.json"
        g.write_text(dump_graph_json(pcp_witness(PcpInstance((("a", "aa"), ("ab", "b"))), (1, 2)).graph))
        code, out, _ = run(capsys, "pcp", "audit", str(g))
        assert code == 0
        assert out == "no-skipping: ok\nmonotonicity: ok\n"
        code, out, _ = run(capsys, "pcp", "audit", str(g), "--json")
        assert code == 0
        assert json.loads(out) == {
            "monotonicity": {"ok": True, "violations": []},
            "noSkipping": {"ok": True, "violations": []},
        }

    def test_audit_text_lists_violations(self, capsys, tmp_path):
        # the verifier writes back a stream cell it has already read
        g = tmp_path / "g.json"
        events = [
            ("init.aw", write(INIT_TID, "aw", "0")),
            ("g1", write("guess_aw", "aw", "v")),
            ("c1", read("check_w", "aw", "v")),
            ("c2", write("check_w", "aw", "v")),
        ]
        g.write_text(dump_graph_json(build_graph(events, {"c1": "g1"}, {"aw": ["init.aw", "g1", "c2"]})))
        code, out, _ = run(capsys, "pcp", "audit", str(g))
        assert (code, out) == (
            1,
            "no-skipping: ok\n"
            "monotonicity: 2 violations\n"
            "  po: read c1 idx 1 before write c2 idx 1\n"
            "  hb: writes g1,c2 on aw do not increase\n",
        )

    AW0 = ("init.aw", write(INIT_TID, "aw", "0"))
    GUESSES = [("g1", write("guess_aw", "aw", "a")), ("g2", write("guess_aw", "aw", "b"))]

    @pytest.mark.parametrize(
        "events,rf,mo,report",
        [
            # no-skipping: the guesser never reads its own stream
            ([AW0, ("g1", read("guess_aw", "aw", "0"))], {"g1": "init.aw"}, {"aw": ["init.aw"]},
             "no-skipping: 1 violation\n  g1: no family covers reads of aw by guess_aw\nmonotonicity: ok\n"),
            ([AW0, ("c1", read("check_w", "aw", "0"))], {"c1": "init.aw"}, {"aw": ["init.aw"]},
             "no-skipping: 1 violation\n  c1: reads the initial value instead of guess_aw\nmonotonicity: ok\n"),
            ([AW0, ("c1", write("check_w", "aw", "a")), ("c2", read("check_w", "aw", "a"))], {"c2": "c1"},
             {"aw": ["init.aw", "c1"]},
             "no-skipping: 1 violation\n  c2: reads from check_w instead of guess_aw\nmonotonicity: ok\n"),
            # monotonicity: po from a write into a later write, po between reads, mo
            ([AW0, *GUESSES, ("g3", write("guess_aw", "z_aw_p", "1"))], {},
             {"aw": ["init.aw", "g1", "g2"], "z_aw_p": ["g3"]},
             "no-skipping: ok\nmonotonicity: 1 violation\n  po: write g2 idx 2 before write g3 idx 1\n"),
            ([AW0, ("init.bw", write(INIT_TID, "bw", "0")), *GUESSES, ("h1", write("guess_bw", "bw", "a")),
              ("c1", read("check_w", "aw", "a")), ("c2", read("check_w", "aw", "b")), ("c3", read("check_w", "bw", "a"))],
             {"c1": "g1", "c2": "g2", "c3": "h1"}, {"aw": ["init.aw", "g1", "g2"], "bw": ["init.bw", "h1"]},
             "no-skipping: ok\nmonotonicity: 1 violation\n  po: reads c2,c3 decrease 2->1 outside the allowed step\n"),
            ([AW0, *GUESSES], {}, {"aw": ["init.aw", "g2", "g1"]},
             "no-skipping: ok\nmonotonicity: 1 violation\n  mo[aw]: g2 idx 2 before g1 idx 1\n"),
        ],
        ids=["uncovered-read", "initial-value", "foreign-writer", "po-write-write", "po-read-read", "mo"],
    )
    def test_audit_text_names_each_violation(self, capsys, tmp_path, events, rf, mo, report):
        g = tmp_path / "g.json"
        g.write_text(dump_graph_json(build_graph(events, rf, mo)))
        assert run(capsys, "pcp", "audit", str(g)) == (1, report, "")

    def test_audit_flags_foreign_graph(self, capsys, tmp_path):
        g = tmp_path / "mp.json"
        g.write_text(dump_graph_json(corpus.twin_write_trace(2).graph))
        assert run(capsys, "pcp", "audit", str(g))[0] == 65


class TestBadSettings:
    """Negative or zero-context budget settings are usage errors, from flags or config."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["reach", "PROG", "--contexts", "2", "--event-cap", "-3"],
            ["reach", "PROG", "--contexts", "-1"],
            ["reach", "PROG", "--contexts", "0"],
            ["reach", "PROG", "--contexts", "2", "--rmws", "-1"],
            ["reach", "PROG", "--contexts", "2", "--naive", "--event-cap", "-1"],
            ["enumerate", "PROG", "--max-events", "-1"],
            ["bound", "--program", "PROG", "--contexts", "-2"],
            ["bound", "--program", "PROG", "--contexts", "2", "--rmws", "-1"],
            ["enumerate", "PROG", "--max-events", "2", "--limit", "-5"],
            ["reach", "PROG", "--naive", "--contexts", "2"],
        ],
    )
    def test_flag_exits_64(self, capsys, mp_file, argv):
        code, out, err = run(capsys, *[mp_file if a == "PROG" else a for a in argv])
        assert code == 64 and out == ""
        assert err.startswith("ra-reach: error: --") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, bound_code",
        [("contexts=2\nevent-cap=-3\n", 0), ("contexts=-2\n", 64), ("contexts=2\nrmws=-1\n", 64)],
    )
    def test_config_exits_64(self, capsys, tmp_path, mp_file, text, bound_code):
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text(text)
        assert run(capsys, "reach", mp_file, "--config", str(cfgf))[0] == 64
        # bound takes no event cap, so only the settings it reads are checked
        assert run(capsys, "bound", "--program", mp_file, "--config", str(cfgf))[0] == bound_code

    def test_zero_cap_still_runs(self, capsys, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "2", "--event-cap", "0")
        assert code == 2 and out.startswith("inconclusive")
        assert run(capsys, "enumerate", mp_file, "--max-events", "0")[0] == 0

    def test_naive_needs_a_cap_not_contexts(self, capsys, tmp_path, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--naive", "--event-cap", "4")
        assert code == 0 and out.startswith("reachable")
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text("event-cap=4\n")
        assert run(capsys, "reach", mp_file, "--naive", "--config", str(cfgf))[0] == 0
        cfgf.write_text("contexts=2\n")
        code, _, err = run(capsys, "reach", mp_file, "--naive", "--config", str(cfgf))
        assert code == 64 and err == "ra-reach: error: --event-cap is required (flag or config)\n"

    @pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--max-nodes", "1")])
    def test_naive_rejects_search_flags(self, capsys, tmp_path, mp_file, flag, value):
        # the enumeration has no branch order and no node budget: a flag it would ignore is a usage error
        code, out, err = run(capsys, "reach", mp_file, "--naive", "--event-cap", "4", flag, value)
        assert (code, out) == (64, "")
        assert err == f"ra-reach: error: {flag} does not apply to --naive\n"
        # --contexts (which the enumeration also ignores) and config presets stay accepted
        assert run(capsys, "reach", mp_file, "--naive", "--contexts", "2", "--event-cap", "4")[0] == 0
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text(f"event-cap=4\n{flag[2:]}={value}\n")
        assert run(capsys, "reach", mp_file, "--naive", "--config", str(cfgf))[0] == 0

    def test_jobs_is_gone(self, capsys, tmp_path, mp_file):
        with pytest.raises(SystemExit) as ei:
            cli.main(["reach", mp_file, "--contexts", "2", "--jobs", "2"])
        assert ei.value.code == 64
        cfgf = tmp_path / "budget.cfg"
        cfgf.write_text("contexts=2\njobs=2\n")
        assert run(capsys, "reach", mp_file, "--config", str(cfgf))[0] == 65


class TestInternalError:
    def test_unexpected_exception_exits_70(self, capsys, monkeypatch, mp_file):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_check", boom)
        code, out, err = run(capsys, "check", mp_file)
        assert (code, out) == (70, "")
        assert err == "ra-reach: internal error: boom\n"
        assert "Traceback" not in err

    def test_memory_error_names_its_type_and_the_bounding_flags(self, capsys, monkeypatch, mp_file):
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_cmd_reach", exhausted)
        code, out, err = run(capsys, "reach", mp_file, "--contexts", "2")
        assert (code, out) == (70, "")
        assert err == "ra-reach: internal error: MemoryError (--event-cap and --max-nodes bound a search)\n"

    @pytest.mark.parametrize(
        "handler,argv,hint",
        [
            ("_cmd_reach", ["reach", "--naive", "--event-cap", "3"], " (--event-cap bounds the enumeration)"),
            ("_cmd_enumerate", ["enumerate", "--max-events", "3"], " (--max-events bounds the enumeration)"),
            ("_cmd_check", ["check"], ""),
        ],
        ids=["reach-naive", "enumerate", "check"],
    )
    def test_memory_error_names_the_flags_of_the_verb_that_ran(self, capsys, monkeypatch, mp_file, handler, argv, hint):
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setattr(cli, handler, exhausted)
        code, out, err = run(capsys, argv[0], mp_file, *argv[1:])
        assert (code, out) == (70, "")
        assert err == f"ra-reach: internal error: MemoryError{hint}\n"


class TestCachedParser:
    """One parser serves every ``cli.main`` call of a process; no call's flags reach the next."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    def test_no_value_carries_over(self, capsys, tmp_path, mp_file):
        loop = tmp_path / "loop.txt"
        loop.write_text(MP_LOOP)
        reach = ["reach", str(loop), "--contexts", "2", "--event-cap", "6"]
        calls = [
            reach + ["--seed", "3", "--json"],
            reach,
            ["enumerate", mp_file, "--max-events", "2", "--limit", "1"],
            ["enumerate", mp_file, "--max-events", "2"],
            ["reach", str(loop), "--contexts", "two"],
            reach,
        ]
        parser = cli.build_parser()
        in_turn = [self.outcome(capsys, argv) for argv in calls]
        assert cli.build_parser() is parser
        assert [code for code, _, _ in in_turn] == [2, 2, 0, 0, 64, 2]
        # seed 3 gives (73, 52): the seed and --json of the first call are gone
        assert in_turn[1][1] == in_turn[5][1] == "inconclusive (visited 71, pruned 47, max events 6)\n"
        assert in_turn[2][1].endswith("\n1 consistent graphs\n") and in_turn[3][1].endswith("\n3 consistent graphs\n")
        # each call alone on a newly built parser gives the same bytes
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(self.outcome(capsys, argv))
        assert alone == in_turn


class TestMalformedJson:
    """Ill-typed JSON fields are input errors (65) with a one-line message."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g["events"][1].update(id=[0]),
            lambda g: g["events"][1].update(id=1.5),
            lambda g: g["events"][1].update(id=True),
            lambda g: g["events"][1].update(tid=["t"]),
            lambda g: g["events"][1].update(valW={"v": 1}),
            lambda g: g["rf"][0].__setitem__(1, [0]),
            lambda g: g["mo"]["x"].append(None),
            lambda g: g.update(mo=[["x"]]),
        ],
    )
    def test_graph_fields(self, capsys, tmp_path, twin_prog_file, edit):
        blob = trace_to_json(corpus.twin_write_trace(2))
        edit(blob["graph"])
        g, t = tmp_path / "g.json", tmp_path / "t.json"
        g.write_text(json.dumps(blob["graph"]))
        t.write_text(json.dumps(blob))
        for argv in (["check", str(g)], ["pcp", "audit", str(g)], ["reduce", str(t), "--program", twin_prog_file]):
            code, out, err = run(capsys, *argv)
            assert code == 65 and out == ""
            assert err.startswith("ra-reach: error: bad graph JSON") and err.count("\n") == 1
        code, out, _ = run(capsys, "trace-validate", str(t))
        assert code == 1 and out.startswith("invalid: bad graph JSON")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda g: g["events"][0].update(op="rmw", valR="0"), "init event 'init.x' must be a plain write"),
            (lambda g: g["rf"][0].__setitem__(1, "e9"), "rf edge 'e2' <- 'e9' mentions unknown events"),
            (lambda g: g["rf"].append(["e1", "init.x"]), "rf target 'e1' is not a read"),
            (lambda g: g["rf"][1].__setitem__(1, "e2"), "rf source 'e2' is not a write"),
            (lambda g: (g["events"][3].update(op="rmw", valR="1"), g["rf"].append(["e3", "e3"])),
             "event 'e3' cannot read from itself"),
            (lambda g: g["mo"].update(y=["e1"]), "mo row for unknown/unwritten location 'y'"),
        ],
    )
    def test_graph_rules(self, capsys, tmp_path, edit, message):
        # well-typed graphs that break a rule of build_graph are input errors too
        blob = trace_to_json(corpus.twin_write_trace(2))["graph"]
        edit(blob)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(blob))
        assert run(capsys, "check", str(g)) == (65, "", f"ra-reach: error: {message}\n")

    @pytest.mark.parametrize("bad", [[0], 2.0, None, {"e": 1}])
    def test_run_event_ids(self, capsys, tmp_path, twin_prog_file, bad):
        blob = trace_to_json(corpus.twin_write_trace(2))
        blob["runs"][0]["events"][0] = bad
        t = tmp_path / "t.json"
        t.write_text(json.dumps(blob))
        code, _, err = run(capsys, "reduce", str(t), "--program", twin_prog_file)
        assert code == 65 and err.startswith("ra-reach: error: bad trace JSON")

    def test_too_deeply_nested(self, capsys, tmp_path, twin_prog_file):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000 + "\n")
        for argv in (["check", str(deep)], ["pcp", "audit", str(deep)], ["reduce", str(deep), "--program", twin_prog_file]):
            code, out, err = run(capsys, *argv)
            assert code == 65 and out == ""
            assert err.startswith("ra-reach: error: bad JSON: maximum recursion depth") and err.count("\n") == 1
        code, out, _ = run(capsys, "trace-validate", str(deep))
        assert code == 1 and out.startswith("invalid: bad JSON")


class TestMalformedProgram:
    """Each parser branch that rejects a program text exits 65 with its one-line message."""

    HEAD = "locs x\nvals 0 1\n"
    THREAD = "thread t init q0 final q1\n  q0 q1 w x 1\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("locs x\nvals 0 1\nvals 0 1\n" + THREAD, "line 3: duplicate vals line"),
            (HEAD + "init x=0\ninit x=1\n" + THREAD, "line 4: duplicate init line"),
            (HEAD + "init x\n" + THREAD, "line 3: init entries look like loc=val"),
            (HEAD + "init x=0 x=1\n" + THREAD, "line 3: duplicate init value for 'x'"),
            (HEAD + "init x=\n" + THREAD, "line 3: bad value token ''"),
            (HEAD + THREAD + THREAD, "line 5: duplicate thread 't'"),
            (HEAD + "thread t init q0 final q1\n  q0 q1 w\n", "line 4: expected 'src dst kind loc val(s)'"),
            ("locs x\n" + THREAD, "missing vals line"),
            (HEAD + "init y=0\n" + THREAD, "init assigns undeclared location 'y'"),
            (HEAD + "init x=5\n" + THREAD, "initial value '5' of 'x' not declared"),
            (HEAD + "thread t init q0 final q1\n  q0 q1 rmw x 1\n", "line 4: rmw lines take 2 value(s)"),
            ("locs x\nvals 0 0\n" + THREAD, "line 2: vals must list distinct values"),
            (HEAD + "thread t init q0\n  q0 q1 w x 1\n", "line 3: expected 'thread <id> init <q> final <q>'"),
            ("vals 0 1\n" + THREAD, "missing locs line"),
            (HEAD + "init =0\n" + THREAD, "line 3: bad location token ''"),
            (HEAD + "init =\n" + THREAD, "line 3: bad value token ''"),
            ("locs x x\nvals 0 1\n" + THREAD, "line 1: locs must list distinct locations"),
            ("locs x\nvals 0 1\nlocs y\n" + THREAD, "line 3: duplicate locs line"),
            (HEAD + "  q0 q1 w x 1\n" + THREAD, "line 3: transition outside a thread block"),
            (HEAD + "thread init init q0 final q1\n", "line 3: thread id 'init' is reserved"),
            (HEAD + "thread t init q0 final q1\n  q0 q1 u x 1\n", "line 4: unknown action kind 'u'"),
            (HEAD + "thread t init q0 final q1\n  q0 q1 r x 1 0\n", "line 4: r lines take 1 value(s)"),
            (HEAD + THREAD + "  q0 q1 w x 1\n", "line 5: duplicate transition"),
            ("locs x\nvals 1 2\n" + THREAD, "no initial value for 'x' and '0' is not a declared value"),
            (HEAD + "thread t init q0 final q1\n  q0 q1 w y 1\n", "unknown location 'y' in thread 't'"),
        ],
    )
    def test_reach_exits_65(self, capsys, tmp_path, text, message):
        prog = tmp_path / "prog.txt"
        prog.write_text(text)
        assert run(capsys, "reach", str(prog), "--contexts", "1") == (65, "", f"ra-reach: error: {message}\n")

    def test_alphabet_error_is_the_same_in_every_process(self, tmp_path):
        # several offenders: the first in row order (src, dst, label) is named, whatever the hash seed
        prog = tmp_path / "prog.txt"
        prog.write_text(self.HEAD + "thread t init q0 final q1\n  q0 q1 w x 5\n  q1 q0 w x 7\n  q0 q0 r x 9\n")
        script = "import sys\nfrom rareach import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        seen = set()
        for seed in range(1, 7):
            env = {**os.environ, "PYTHONPATH": str(Path(rareach.__file__).parents[1]), "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run(
                [sys.executable, "-c", script, "reach", str(prog), "--contexts", "1"],
                env=env, capture_output=True, text=True,
            )
            seen.add((proc.returncode, proc.stdout, proc.stderr))
        assert seen == {(65, "", "ra-reach: error: unknown value '9' in thread 't'\n")}


class TestUnknownThread:
    def test_reduce_names_the_thread(self, capsys, twin_trace_file, mp_file):
        code, out, err = run(capsys, "reduce", twin_trace_file, "--program", mp_file)
        assert code == 65 and out == ""
        assert err == "ra-reach: error: thread 't' of the trace is not declared by the program\n"


class TestEmptyRun:
    """A trace may hold an empty run, also of a thread without events."""

    @staticmethod
    def files(tmp_path, tid, last=False):
        # first by default, so the pair search sweeps the empty run in every mode
        data = trace_to_json(corpus.twin_write_trace(2))
        data["runs"].insert(len(data["runs"]) if last else 0, {"tid": tid, "events": []})
        trace, program = tmp_path / "t.json", tmp_path / "p.txt"
        trace.write_text(json.dumps(data))
        program.write_text(corpus.TWIN_WRITE_LOOP + "thread u init p0 final p1\n  p0 p1 w x 0\n")
        return str(trace), str(program)

    @pytest.mark.parametrize("flags", [[], ["--fixpoint"]])
    def test_declared_thread_without_events(self, capsys, tmp_path, flags):
        trace, program = self.files(tmp_path, "u")
        assert run(capsys, "trace-validate", trace)[:2] == (0, "valid: 4 events in 2 runs\n")
        code, out, err = run(capsys, "reduce", trace, "--program", program, "--json", *flags)
        assert (code, err) == (0, "")
        bundle = json.loads(out)
        assert [step["removed"] for step in bundle["steps"]] == [["e2", "e3"]]
        assert bundle["trace"]["runs"] == [{"tid": "u", "events": []}, {"tid": "t", "events": ["e1", "e4"]}]

    @pytest.mark.parametrize("flags", [[], ["--fixpoint"]])
    def test_undeclared_thread_is_a_data_error(self, capsys, tmp_path, flags):
        trace, program = self.files(tmp_path, "v")
        code, out, err = run(capsys, "reduce", trace, "--program", program, *flags)
        assert (code, out) == (65, "")
        assert err == "ra-reach: error: thread 'v' of the trace is not declared by the program\n"

    @pytest.mark.parametrize("flags", [[], ["--fixpoint"]])
    def test_undeclared_thread_of_a_last_empty_run_is_a_data_error(self, capsys, tmp_path, flags):
        # a single step stops at the first pair, which lies before the empty run
        trace, program = self.files(tmp_path, "v", last=True)
        code, out, err = run(capsys, "reduce", trace, "--program", program, *flags)
        assert (code, out) == (65, "")
        assert err == "ra-reach: error: thread 'v' of the trace is not declared by the program\n"


class TestNotExecutable:
    @pytest.mark.parametrize("flags", [[], ["--fixpoint"]])
    def test_reduce_names_the_event(self, capsys, tmp_path, twin_prog_file, flags):
        # the twin loop never writes y, which it does not even declare; in the
        # second trace the bad event lies past the π-first collapsible pair
        for ops, rf, bad in (
            (["w x 1", "w y 1", "r x 1", "r x 1"], {4: 2, 5: 2}, "3 (t: w y 1)"),
            (["w x 1", "r x 1", "w x 1", "r x 1", "w y 1"], {3: 2, 5: 4}, "6 (t: w y 1)"),
        ):
            events = [write("init", "x", "0"), write("init", "y", "0")]
            events += [{"w": write, "r": read}[op[0]]("t", op[2], op[4]) for op in ops]
            ids = tuple(range(2, len(events)))
            mo = {x: [e for e, lab in enumerate(events) if lab.loc == x and lab.op.writes] for x in "xy"}
            g = build_graph(list(enumerate(events)), rf, mo)
            trace = tmp_path / "bad.json"
            trace.write_text(json.dumps(trace_to_json(make_trace(g, [Run("t", ids)]))))
            code, out, err = run(capsys, "reduce", str(trace), "--program", twin_prog_file, *flags)
            assert (code, out) == (65, "")
            assert err == f"ra-reach: error: thread 't' of the program cannot take event {bad}\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [[], ["frobnicate"], ["pcp"], ["reach"], ["pcp", "witness", "inst.txt"]],
    )
    def test_usage_exits_64(self, argv):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 64
