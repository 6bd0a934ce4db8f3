"""ra-reach benchmark: time to verdict of the CLI verbs on seeded workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload gadget-search --seed 1 --seconds 28 --trace 0

A run sets the workload's inputs up ``SETUP_SAMPLES`` times in a row, then
runs passes on the last set-up's files for as long as ``--seconds``
allows (ops only read their input files).  A pass runs the workload's ops
back to back through ``cli.main`` in this process with stdout captured;
one pass is one ``verdict_s`` sample.  Outputs are checked against
independent references outside the timed region (see ``workloads.py``).

Every op and set-up is timed at a fixed reference speed by
``speed.Speedometer``: its wall time, scaled by how fast a fixed chunk of
Python ran just before, during and just after it.  The host's speed
changes by about 1.4 times in phases of seconds to minutes, which spread
plain wall times by up to a third between runs of the same code; the
record keeps the wall times next to the scaled ones.

``--trace 0`` reports the end-to-end metrics:

* ``verdict_s``: the median over passes of a pass's time at the reference
  speed, from inputs on disk to every op's verdict or output;
* ``setup_s``: the median time at the reference speed to generate and
  write the inputs;
* ``peak_rss_mb``: peak resident memory of this process after the passes;
* ``ok_share``: share of ops whose output passed every check.

Set-ups are timed back to back before the first pass, because a set-up
timed right after a pass ran up to twice as slow as one after another
set-up.

``--trace 1`` spends half the time on untraced passes, then sets up and
runs one pass with span wrappers on the rareach layers (see ``spans.py``)
and reports per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` count ops over all passes, ``metrics`` maps names to
``{"value", "unit"}``.  A fuller record is written to ``.bench_out/``:
environment, per-op determinism fingerprints, ``failed_share`` and
``decided_share``, all samples, and the tail percentile of ``verdict_s``;
the spans of a traced run go next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from speed import Speedometer
from workloads import SETUPS, graph_words, replays

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 25
DECIDED = ("reachable", "unreachable-within-bound")
REACH_EXIT = {"reachable": 0, "unreachable-within-bound": 1, "inconclusive": 2}

UNITS = {
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


def load_program():
    """Import rareach and the test oracle from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "rareach" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        sys.exit(f"bench: {ROOT} has no src/rareach or tests/oracle.py to benchmark")
    sys.path[:0] = [str(src), str(ROOT)]
    import rareach.cli

    if Path(rareach.cli.__file__).resolve().parent != src / "rareach":
        sys.exit(f"bench: imported rareach from {rareach.cli.__file__}, not from {src}")
    return rareach.cli


# --- running ops ---------------------------------------------------------------------


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None  # traceback of an exception that escaped cli.main
    seconds: float  # at the reference speed (see speed.py)
    wall: float
    sha256: str  # of stdout, which is only kept for the first pass

    def json(self):
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


def run_op(cli, argv: list[str], speed: Speedometer) -> Outcome:
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv), None
            except SystemExit as exc:
                return (exc.code if isinstance(exc.code, int) else 1), None
            except Exception:  # an escaped exception is a failed op, not a benchmark crash
                return None, traceback.format_exc()

    (code, error), wall, seconds = speed.time(call)
    stdout = out.getvalue()
    return Outcome(code, stdout, err.getvalue(), error, seconds, wall, hashlib.sha256(stdout.encode()).hexdigest())


def run_pass(cli, ops, speed: Speedometer, keep_stdout: bool, tracer=None) -> tuple[float, list[Outcome]]:
    """Run every op once; returns the pass's time at the reference speed and the outcomes.

    Outputs of passes after the first are kept as digests only, so that
    stored outputs do not count towards peak memory."""
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.root(op.name)
        outcomes.append(run_op(cli, op.argv, speed))
    elapsed = sum(o.seconds for o in outcomes)
    return elapsed, outcomes if keep_stdout else [replace(o, stdout="") for o in outcomes]


# --- checking ------------------------------------------------------------------------


class Checker:
    """Checks op outcomes against the references in ``op.ref``.

    Consistency comes from ``tests/oracle.py`` and reachability from the
    replays in ``workloads.py``.  Irreducibility has no independent oracle:
    it is ``find_collapsible`` run again on the reloaded output.
    """

    def __init__(self, cli, speed: Speedometer, workload, first_pass: dict[str, Outcome]) -> None:
        from rareach.graph import graph_from_json
        from rareach.model import parse_program
        from rareach.reduction import find_collapsible
        from rareach.trace import trace_from_json
        from tests.oracle import consistent_oracle

        self.cli = cli
        self.speed = speed
        self.workload = workload
        self.first = first_pass
        self.consistent = lambda graph: consistent_oracle(graph_from_json(graph))
        self.irreducible = lambda trace, path: (
            find_collapsible(trace_from_json(trace), parse_program(Path(path).read_text())) is None
        )

    def status(self, out: Outcome, problems: list[str]) -> str | None:
        data = out.json()
        status = data.get("status") if isinstance(data, dict) else None
        if status is None:
            problems.append("no JSON status")
        elif out.code != REACH_EXIT.get(status):
            problems.append(f"exit {out.code} contradicts status {status}")
        return status

    def reference_reach(self, argv: list[str], problems: list[str]) -> str | None:
        out = run_op(self.cli, argv, self.speed)
        if out.error or out.code not in (0, 1, 2):
            problems.append(f"reference run {' '.join(argv[2:])} exited {out.code}: {out.stderr.strip()[-200:]}")
            return None
        return self.status(out, problems)

    def check(self, op, out: Outcome) -> list[str]:
        problems: list[str] = []
        if out.error:
            problems.append("exception escaped: " + out.error.strip().splitlines()[-1])
            return problems
        if "Traceback" in out.stderr:
            problems.append("traceback on stderr")
        if out.code not in (0, 1, 2):
            problems.append(f"exit code {out.code}: {out.stderr.strip()[-200:]}")
            return problems
        getattr(self, "check_" + op.ref["kind"])(op, out, problems)
        return problems

    def check_reach(self, op, out, problems) -> None:
        status = self.status(out, problems)
        if status not in op.ref["allowed"]:
            problems.append(f"status {status}, expected one of {op.ref['allowed']}")
        cap = op.ref.get("naive_cap")
        if cap is None:
            return
        path = op.ref["program"]
        budget = ["--contexts", str(op.ref["contexts"]), "--event-cap", str(cap), "--json"]
        naive = self.reference_reach(["reach", path, "--naive", *budget], problems)
        bounded = self.reference_reach(["reach", path, *budget], problems)
        if naive == "reachable" or bounded == "reachable":
            problems.append(f"target reported reachable at cap {cap}: naive {naive}, bounded {bounded}")

    def check_naive(self, op, out, problems) -> None:
        status = self.status(out, problems)
        if status not in DECIDED:
            problems.append(f"naive search did not decide: {status}")
        cap, path = op.ref["cap"], op.ref["program"]
        graphs = (self.first[op.ref["enumeration"]].json() or {}).get("graphs", [])
        prog = self.workload.programs[path]
        expect = any(
            sum(ev["tid"] != "init" for ev in g["events"]) <= cap and replays(prog, graph_words(g))
            for g in graphs
        )
        if (status == "reachable") != expect:
            problems.append(f"status {status} but the enumerated graphs say reachable={expect}")
        bounded = self.reference_reach(
            ["reach", path, "--contexts", str(cap), "--rmws", str(cap), "--event-cap", str(cap), "--json"], problems
        )
        if (bounded == "reachable") != (status == "reachable"):
            problems.append(f"naive says {status}, bounded search says {bounded}")

    def check_enumerate(self, op, out, problems) -> None:
        data = out.json()
        if not isinstance(data, dict) or data.get("count") != len(data.get("graphs", ())):
            problems.append("enumerate output lacks a matching count and graph list")
            return
        prog = self.workload.programs[op.ref["program"]]
        texts = {json.dumps(g, sort_keys=True) for g in data["graphs"]}
        if len(texts) != data["count"]:
            problems.append("enumeration repeats a graph")
        for g in data["graphs"]:
            if sum(ev["tid"] != "init" for ev in g["events"]) > op.ref["max_events"]:
                problems.append("graph exceeds --max-events")
            elif not replays(prog, graph_words(g), final=False):
                problems.append("graph has a thread word the program cannot execute")
            elif not self.consistent(g):
                problems.append("graph is inconsistent by the oracle")
            else:
                continue
            break

    def check_reduce(self, op, out, problems) -> None:
        data = out.json()
        if out.code != 0 or not isinstance(data, dict) or not data.get("irreducible"):
            problems.append("reduce did not report an irreducible result")
            return
        if "steps" in op.ref and len(data["steps"]) != op.ref["steps"]:
            problems.append(f"{len(data['steps'])} reduction steps, expected {op.ref['steps']}")
        prog = self.workload.programs[op.ref["program"]]
        before = json.loads(Path(op.ref["input"]).read_text())
        after = data["trace"]
        if replays(prog, graph_words(before["graph"])) != replays(prog, graph_words(after["graph"])):
            problems.append("reduction changed whether the trace reaches the target")
        if len(after["graph"]["events"]) > len(before["graph"]["events"]):
            problems.append("reduction added events")
        if not self.consistent(after["graph"]):
            problems.append("reduced trace is inconsistent by the oracle")
        if not self.irreducible(after, op.ref["program"]):
            problems.append("reduced trace still has a collapsible pair")

    def check_witness(self, op, out, problems) -> None:
        data = out.json()
        if out.code != 0 or not isinstance(data, dict) or "graph" not in data:
            problems.append("pcp witness --check did not emit a trace")
            return
        if not replays(self.workload.programs[op.ref["program"]], graph_words(data["graph"])):
            problems.append("witness does not replay to the gadget's final states")
        if not self.consistent(data["graph"]):
            problems.append("witness is inconsistent by the oracle")


# --- metrics ---------------------------------------------------------------------------


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, if there are enough."""
    n = len(samples)
    if n <= 10:
        return None
    return {"share_below": (n - 10) / n, "value": sorted(samples)[n - 11]}


def fingerprint(op, out: Outcome) -> dict:
    fp = {"op": op.name, "code": out.code, "sha256": out.sha256}
    data = out.json()
    if isinstance(data, dict):
        if "status" in data:
            fp["status"] = data["status"]
            fp.update({k: data["stats"][k] for k in ("visited", "prunes", "maxEvents")})
        if "count" in data:
            fp["graphs"] = data["count"]
        if "steps" in data:
            fp["steps"] = len(data["steps"])
        if "runs" in data and "graph" in data:
            fp["events"] = len(data["graph"]["events"])
    return fp


def search_counters(ops, outs: list[Outcome]) -> dict:
    """Counters of the budgeted searches (reach ops without --naive)."""
    visited = prunes = searches = max_events = 0
    for op, out in zip(ops, outs):
        data = out.json()
        if op.ref.get("kind") == "reach" and isinstance(data, dict) and "stats" in data:
            searches += 1
            visited += data["stats"]["visited"]
            prunes += data["stats"]["prunes"]
            max_events = max(max_events, data["stats"]["maxEvents"])
    return {"visited": visited, "prunes": prunes, "searches": searches, "max_events": max_events}


def layer_metrics(tracer, ops, passes, untraced_s: float, traced_s: float, traced_setup_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced set-up plus one traced pass.

    Span times are wall times; ``scale`` (the traced pass's time at the
    reference speed over its wall time) brings them to the reference speed.
    """
    t = tracer.total
    m: dict[str, tuple[float, str]] = {}
    m["model.parse_s"] = (t("model.parse_program")[2], "s")
    m["model.step_states_calls"] = (t("model.step_states")[0], "count")
    m["model.step_states_s"] = (t("model.step_states")[2], "s")
    calls, _, self_s = t("graph.build_graph")
    m["graph.build_graph_calls"] = (calls, "count")
    m["graph.build_graph_s"] = (self_s, "s")
    m["graph.hb_calls"] = (tracer.hb_calls, "count")
    m["graph.hb_s"] = (t("graph.hb_closure")[2], "s")
    calls, _, self_s = t("consistency.check_ra")
    m["consistency.check_ra_calls"] = (calls, "count")
    m["consistency.check_ra_s"] = (self_s, "s")
    m["consistency.consistent_ratio"] = (tracer.consistent / calls if calls else 0.0, "ratio")
    calls, _, self_s = t("trace.make_trace")
    m["trace.make_trace_calls"] = (calls, "count")
    m["trace.make_trace_s"] = (self_s, "s")
    for name in ("find_collapsible", "summary", "reduce"):
        calls, _, self_s = t(f"reduction.{name}")
        m[f"reduction.{name}_calls"] = (calls, "count")
        m[f"reduction.{name}_s"] = (self_s, "s")
    m["decider.bounded_reach_s"] = (t("decider.bounded_reach")[2], "s")
    m["decider.naive_reach_s"] = (t("decider.naive_reach")[2], "s")
    m["decider.enumerate_s"] = (t("decider.enumerate_graphs")[2], "s")
    untraced = [statistics.median(p[i].seconds for p in passes) for i in range(len(ops))]
    search = search_counters(ops, passes[0])
    search_s = sum(s for op, s in zip(ops, untraced) if op.ref.get("kind") == "reach")
    attempted = search["visited"] - search["searches"] + search["prunes"]
    m["decider.visited"] = (search["visited"], "count")
    m["decider.prunes"] = (search["prunes"], "count")
    m["decider.prune_ratio"] = (search["prunes"] / attempted if attempted else 0.0, "ratio")
    m["decider.nodes_per_s"] = (search["visited"] / search_s if search_s else 0.0, "1/s")
    m["decider.max_events"] = (search["max_events"], "count")
    candidates = t("graph.build_graph", parent="decider.enumerate_graphs")[0]
    m["decider.candidates"] = (candidates, "count")
    m["decider.useful_ratio"] = (tracer.yields / candidates if candidates else 0.0, "ratio")
    m["decider.decided_share"] = (decided_share(passes[0]) or 0.0, "share")
    m["pcp.compile_s"] = (t("pcp.compile_pcp")[2], "s")
    m["pcp.witness_s"] = (t("pcp.pcp_witness")[2], "s")
    m["pcp.audit_s"] = (t("pcp.check_no_skipping")[2] + t("pcp.check_monotonicity")[2], "s")
    for layer in ("model", "graph", "consistency", "trace", "reduction", "decider", "pcp", "cli"):
        m[f"{layer}.self_s"] = (tracer.layer_self(layer), "s")
    m = {k: (v * scale if u == "s" else v, u) for k, (v, u) in m.items()}
    m["cli.output_bytes"] = (sum(len(o.stdout.encode()) for o in passes[0]), "bytes")
    m["tracing.setup_s"] = (traced_setup_s, "s")
    m["tracing.verdict_s"] = (traced_s, "s")
    m["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    m["tracing.spans"] = (len(tracer.span_name) + tracer.dropped, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def decided_share(outs: list[Outcome]) -> float | None:
    statuses = [d["status"] for d in (o.json() for o in outs) if isinstance(d, dict) and "status" in d]
    return sum(s in DECIDED for s in statuses) / len(statuses) if statuses else None


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py")),
    }


def git_commit() -> str | None:
    """HEAD's commit if the checkout is a git work tree whose HEAD names a loose ref."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


# --- the run -----------------------------------------------------------------------------


def set_up(cli, speed: Speedometer, name: str, seed: int, work: Path, tiny: bool):
    """Write the workload's inputs; returns the workload and the set-up's time at the reference speed."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return SETUPS[name](cli.main, random.Random(seed), str(work), tiny)

    workload, _, seconds = speed.time(call)
    return workload, seconds


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, edit_refs=None) -> dict:
    """Set up, time, trace and check one workload; returns the full record.

    ``edit_refs`` may change the ops' references before checking (the
    self-test uses it to plant a wrong expectation).
    """
    with Speedometer() as speed:
        return _run_workload(cli, speed, name, seed, seconds, trace, tiny, edit_refs)


def _run_workload(cli, speed, name, seed, seconds, trace, tiny, edit_refs) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{seed}"
    budget = seconds / 2 if trace else seconds
    setup_times, passes, pass_times, pass_walls = [], [], [], []
    started = perf_counter()
    for _ in range(SETUP_SAMPLES):
        workload, elapsed = set_up(cli, speed, name, seed, work, tiny)
        setup_times.append(elapsed)
    while True:
        gc.collect()
        pass_start = perf_counter()
        elapsed, outs = run_pass(cli, workload.ops, speed, keep_stdout=not passes)
        pass_walls.append(perf_counter() - pass_start)
        passes.append(outs)
        pass_times.append(elapsed)
        if perf_counter() - started + statistics.median(pass_walls) > budget:
            break
    ops = workload.ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = traced_outs = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            tracer.root("setup")
            workload, traced_setup_s = set_up(cli, speed, name, seed, work, tiny)
            traced_s, traced_outs = run_pass(cli, workload.ops, speed, False, tracer)
        finally:
            tracer.restore()

    if edit_refs is not None:
        edit_refs(ops)
    checker = Checker(cli, speed, workload, {op.name: out for op, out in zip(ops, passes[0])})
    problems = [checker.check(op, out) for op, out in zip(ops, passes[0])]
    if tracer is not None:
        # the naive enumerator is the unpruned reference: it must try every candidate graph
        for op, found in zip(ops, problems):
            if "candidates" in op.ref:
                built = tracer.total("graph.build_graph", parent="decider.enumerate_graphs", root=op.name)[0]
                if built != op.ref["candidates"]:
                    found.append(f"built {built} candidate graphs, expected {op.ref['candidates']}")
    all_passes = passes + ([traced_outs] if traced_outs else [])
    for i, first in enumerate(passes[0]):
        if any((outs[i].sha256, outs[i].code) != (first.sha256, first.code) for outs in all_passes):
            problems[i].append("output differs between identical runs")
    # an op that fails its reference fails it in every pass, since all passes print the same
    attempted = len(ops) * len(all_passes)
    failed = len(all_passes) * sum(bool(p) for p in problems)
    shutil.rmtree(work, ignore_errors=True)

    ops_record = []
    for i, op in enumerate(ops):
        fp = fingerprint(op, passes[0][i])
        fp["min_s"] = min(p[i].seconds for p in passes)
        fp["median_s"] = statistics.median(p[i].seconds for p in passes)
        fp["median_wall_s"] = statistics.median(p[i].wall for p in passes)
        fp["problems"] = problems[i]
        ops_record.append(fp)
    timing = ("min_s", "median_s", "median_wall_s", "problems")
    deterministic = [{k: v for k, v in fp.items() if k not in timing} for fp in ops_record]
    verdict_s = statistics.median(pass_times)
    if trace:
        scale = traced_s / sum(o.wall for o in traced_outs)
        metrics = layer_metrics(tracer, ops, passes, verdict_s, traced_s, traced_setup_s, scale)
    else:
        values = {
            "verdict_s": verdict_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "decided_share": decided_share(passes[0]),
        "verdict_s": {
            "value": verdict_s,
            "fastest_pass": min(pass_times),
            "median_wall_pass": statistics.median(pass_walls),
            "tail": tail(pass_times),
            "n": len(passes),
        },
        "verdict_samples": pass_times,
        "verdict_wall_samples": pass_walls,
        "chunk_samples": {"n": len(speed.chunks), "median_s": statistics.median(speed.chunks)},
        "setup_samples": setup_times,
        "fingerprint": hashlib.sha256(json.dumps(deterministic, sort_keys=True).encode()).hexdigest(),
        "ops": ops_record,
        "metrics": metrics,
        "tracer": tracer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    record = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer")
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op['op']}: {problem}")
    v = record["verdict_s"]
    print(
        f"{args.workload} seed {args.seed}: verdict_s {v['value']:.4f} s (median wall {v['median_wall_pass']:.4f} s)"
        f" over {v['n']} passes,"
        f" fingerprint {record['fingerprint'][:16]}, record {stem.relative_to(ROOT)}.json"
    )
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
