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
from rareach.consistency import Verdict
from rareach.decider import enumerate_graphs
from rareach.graph import Event, build_graph, dump_graph_json
from rareach.model import parse_program, read, serialize_program, write
from rareach.reduction import small_model_bound
from rareach.trace import ContextBudget, Run, dump_trace_json, load_trace_json, make_trace, trace_to_json

from tests import corpus
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
        Event(0, read("t", "x", "1")),
        Event(1, write("t", "y", "1")),
        Event(2, read("u", "y", "1")),
        Event(3, write("u", "x", "1")),
    ]
    return build_graph(
        events, {"t": [0, 1], "u": [2, 3]}, {0: 3, 2: 1}, {"x": [3], "y": [1]}
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

    def test_output_file(self, capsys, tmp_path, twin_trace_file, twin_prog_file):
        dst = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "reduce", twin_trace_file, "--program", twin_prog_file, "-o", str(dst)
        )
        assert code == 0
        assert "collapsed" in out and "{" not in out
        assert load_trace_json(dst.read_text()).pi == ("e1", "e4")

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
        ],
    )
    def test_pinned_bytes(self, capsys, inputs, name, want):
        assert self.digests(capsys, inputs, name) == want


class TestReach:
    def test_reachable(self, capsys, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "2")
        assert code == 0
        assert out == "reachable (visited 5, pruned 0, max events 4)\n"

    def test_unreachable(self, capsys, mp_file):
        code, out, _ = run(capsys, "reach", mp_file, "--contexts", "1")
        assert code == 1 and out.startswith("unreachable-within-bound")

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


class TestUnknownThread:
    def test_reduce_names_the_thread(self, capsys, twin_trace_file, mp_file):
        code, out, err = run(capsys, "reduce", twin_trace_file, "--program", mp_file)
        assert code == 65 and out == ""
        assert err == "ra-reach: error: thread 't' of the trace is not declared by the program\n"


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
            g = build_graph([Event(k, lab) for k, lab in enumerate(events)], {"t": list(ids)}, rf, mo)
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
