"""The ``ra-reach`` command line tool.

One binary with verb-style subcommands wiring the library end to end:

* ``check``           consistency-check an execution graph JSON file
* ``trace-validate``  validate a trace JSON file (graph + run partition)
* ``reduce``          collapse a trace once or to a fixpoint
* ``reach``           decide reachability under a context budget
* ``enumerate``       list all consistent graphs up to an event count
* ``pcp``             compile / witness / audit correspondence-problem gadgets
* ``bound``           print the small-model length bound

Exit codes follow sysexits where nothing more specific applies: 64 for usage
errors, 65 for malformed inputs, 70 for internal failures (a failed assertion
or any other unexpected exception, reported in one line, no traceback).  Verbs
with a semantic answer encode it in the exit code (``check`` and
``trace-validate``: 0 yes / 1 no; ``reach``: 0 reachable / 1 unreachable
within the bound / 2 inconclusive).  All JSON output is emitted with sorted
keys and a fixed indent so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice
from typing import Sequence

from .consistency import check_ra
from .decider import ReachStatus, SearchConfig, bounded_reach, enumerate_graphs, naive_reach
from .errors import ParseError, RaReachError
from .graph import graph_to_json, load_graph_json, to_dot
from .model import parse_program, program_to_json, serialize_program
from .pcp import BRIDGE_LOCS, LOC_ROLE, ROLE_MAP, check_monotonicity, check_no_skipping, compile_pcp, parse_pcp, pcp_witness
from .reduction import reduction_steps, small_model_bound
from .trace import ContextBudget, load_trace_json, trace_to_json

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_REACH_EXIT = {
    ReachStatus.REACHABLE: 0,
    ReachStatus.UNREACHABLE_WITHIN_BOUND: 1,
    ReachStatus.INCONCLUSIVE: 2,
}

_CONFIG_KEYS = ("contexts", "rmws", "event-cap", "seed", "max-nodes")


class _UsageError(Exception):
    """A budget setting that is missing or out of range (exit 64)."""


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 64 instead of 2."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_config(path: str) -> dict[str, int]:
    """key=value presets for the budget flags; '#' starts a comment."""
    out: dict[str, int] = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or key not in _CONFIG_KEYS:
            raise ParseError(f"{path}:{lineno}: expected '<key>=<int>' with key in {_CONFIG_KEYS}")
        try:
            out[key] = int(val)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: {key} needs an integer, got {val!r}") from None
    return out


def _setting(flag: int | None, cfg: dict[str, int], key: str, low: int = 0) -> int | None:
    """The flag if given, else the config value; below ``low`` is a usage error."""
    value = flag if flag is not None else cfg.get(key)
    if value is not None and value < low:
        raise _UsageError(f"--{key} must be at least {low}, got {value}")
    return value


# --- verb handlers ---------------------------------------------------------------


def _budget(args) -> tuple[dict[str, int], int | None, int]:
    """Config presets, contexts and rmws of ``reach`` / ``bound``."""
    cfg = _load_config(args.config) if args.config else {}
    return cfg, _setting(args.contexts, cfg, "contexts", low=1), _setting(args.rmws, cfg, "rmws") or 0


def _required(key: str, value: int | None) -> int:
    """A setting that neither flag nor config may leave out (exit 64)."""
    if value is None:
        raise _UsageError(f"--{key} is required (flag or config)")
    return value


def _cmd_check(args) -> int:
    graph = load_graph_json(_read(args.graph))
    if args.dot:
        _emit(to_dot(graph), args.dot)
    verdict = check_ra(graph)
    if args.json or not verdict.consistent:
        _emit(_json_text(verdict.to_json()), None)
    else:
        print("consistent")
    return 0 if verdict.consistent else 1


def _cmd_trace_validate(args) -> int:
    try:
        trace = load_trace_json(_read(args.trace))
    except RaReachError as exc:
        if args.json:
            _emit(_json_text({"status": "invalid", "error": type(exc).__name__, "message": str(exc)}), None)
        else:
            print(f"invalid: {exc}")
        return 1
    n_runs = len(trace.runs)
    if args.json:
        _emit(_json_text({"status": "valid", "runs": n_runs, "events": len(trace.pi)}), None)
    else:
        print(f"valid: {len(trace.pi)} events in {n_runs} runs")
    return 0


def _cmd_reduce(args) -> int:
    program = parse_program(_read(args.program))
    trace = load_trace_json(_read(args.trace))
    steps: list[dict] = []
    for pair, trace, removed, rewires, swapped in reduction_steps(trace, program, rmw_mode=args.rmw):
        steps.append({
            "first": pair.first,
            "second": pair.second,
            "removed": sorted(removed, key=str),
            "rfRewires": sorted(rewires, key=lambda row: str(row[0])),
            "moSwaps": sorted(swapped),
        })
        if not args.fixpoint:
            break
    if args.dot:
        _emit(to_dot(trace.graph), args.dot)
    if args.json:
        _emit(_json_text({"trace": trace_to_json(trace), "steps": steps, "irreducible": not steps or args.fixpoint}), args.output)
    else:
        for s in steps:
            print(
                f"collapsed ({s['first']}, {s['second']}]: removed {len(s['removed'])} events,"
                f" rewired {len(s['rfRewires'])} reads, transposed mo on {s['moSwaps'] or 'nothing'}"
            )
        if not steps:
            print("irreducible: no collapsible pair")
        _emit(_json_text(trace_to_json(trace)), args.output)
    return 0


def _cmd_reach(args) -> int:
    cfg, contexts, rmws = _budget(args)
    event_cap = _setting(args.event_cap, cfg, "event-cap")
    max_nodes = _setting(args.max_nodes, cfg, "max-nodes", low=1)
    if args.naive:  # the enumeration knows no context budget, branch order or node budget, only the cap
        event_cap = _required("event-cap", event_cap)
        for flag, value in (("seed", args.seed), ("max-nodes", args.max_nodes)):
            if value is not None:
                raise _UsageError(f"--{flag} does not apply to --naive")
    else:
        budget = ContextBudget(contexts=_required("contexts", contexts), rmws=rmws)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    program = parse_program(_read(args.program))

    if args.naive:
        verdict = naive_reach(program, event_cap)
    else:
        verdict = bounded_reach(program, SearchConfig(budget, event_cap, seed, memo=True, max_nodes=max_nodes))

    witness = verdict.witness
    if args.emit_witness and witness is not None:
        _emit(_json_text(trace_to_json(witness)), args.emit_witness)
    if args.dot and witness is not None:
        _emit(to_dot(witness.graph), args.dot)
    if args.json:
        out = {
            "status": verdict.status.value,
            "stats": verdict.explored.to_json(),
            "witness": None if witness is None else trace_to_json(witness),
        }
        _emit(_json_text(out), None)
    else:
        s = verdict.explored
        print(f"{verdict.status.value} (visited {s.visited}, pruned {s.prunes}, max events {s.max_events})")
    return _REACH_EXIT[verdict.status]


def _cmd_enumerate(args) -> int:
    max_events = _setting(args.max_events, {}, "max-events")
    limit = _setting(args.limit, {}, "limit")
    program = parse_program(_read(args.program))
    graphs = islice(enumerate_graphs(program, max_events), limit)
    if args.json:  # dicts as graphs are found, then each one's text at its depth: keeps no graph or document chunk list
        texts = [_json_text(doc)[:-1].replace("\n", "\n    ") for doc in [graph_to_json(g) for g in graphs]]
        items = "[" + ",".join(f"\n    {t}" for t in texts) + "\n  ]" if texts else "[]"
        _emit(f'{{\n  "count": {len(texts)},\n  "graphs": {items}\n}}\n', args.output)
    else:
        graphs = list(graphs)
        for i, g in enumerate(graphs):
            words = {t: len(g.po[t]) for t in g.tids()}
            print(f"graph {i}: {len(g.non_init_events())} events {words}")
        print(f"{len(graphs)} consistent graphs")
    return 0


#: ``bound`` refuses a bound with more digits: str() takes time quadratic in the digits (0.1 s at this many)
BOUND_MAX_DIGITS = 100_000


def _cmd_bound(args) -> int:
    _, contexts, rmws = _budget(args)
    contexts = _required("contexts", contexts)
    ceiling = 10**BOUND_MAX_DIGITS
    if (value := small_model_bound(parse_program(_read(args.program)), contexts, rmws, ceiling - 1)) >= ceiling:
        raise ValueError(f"the bound at {contexts} contexts has more than {BOUND_MAX_DIGITS:,} digits")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the exact bound may have more digits than str() allows by default
    try:
        text = _json_text({"bound": value, "contexts": contexts, "rmws": rmws}) if args.json else f"{value}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(text, None)
    return 0


def _cmd_pcp_compile(args) -> int:
    program = compile_pcp(parse_pcp(_read(args.instance)))
    if args.json:
        out = {
            "program": program_to_json(program),
            "roles": ROLE_MAP,
            "locRoles": LOC_ROLE,
            "bridgeLocs": sorted(BRIDGE_LOCS),
        }
        _emit(_json_text(out), args.output)
    else:
        _emit(serialize_program(program), args.output)
    return 0


def _parse_solution(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ParseError(f"--solution wants comma-separated indices, got {text!r}") from None


def _cmd_pcp_witness(args) -> int:
    inst = parse_pcp(_read(args.instance))
    trace = pcp_witness(inst, _parse_solution(args.solution))
    if args.check:  # explicit raises, not asserts, so that python -O keeps them
        verdict = check_ra(trace.graph)
        if not verdict.consistent:
            raise AssertionError(f"witness fails {verdict.axiom and verdict.axiom.value} at {verdict.witness}")
        skip = check_no_skipping(trace.graph)
        if not skip.ok:
            raise AssertionError(f"witness skips: {skip.violations[0]}")
        mono = check_monotonicity(trace.graph)
        if not mono.ok:
            raise AssertionError(f"witness not monotone: {mono.violations[0]}")
    if args.dot:
        _emit(to_dot(trace.graph), args.dot)
    _emit(_json_text(trace_to_json(trace)), args.output)
    return 0


def _cmd_pcp_audit(args) -> int:
    graph = load_graph_json(_read(args.graph))
    skip = check_no_skipping(graph)
    mono = check_monotonicity(graph)
    if args.json:
        _emit(_json_text({"noSkipping": skip.to_json(), "monotonicity": mono.to_json()}), None)
    else:
        for name, report in (("no-skipping", skip), ("monotonicity", mono)):
            if report.ok:
                print(f"{name}: ok")
            else:
                k = len(report.violations)
                print(f"{name}: {k} violation{'s' * (k != 1)}")
                for v in report.violations:
                    print(f"  {v}")
    return 0 if skip.ok and mono.ok else 1


# --- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; ``fn`` names the verb's handler."""
    parser = _Parser(prog="ra-reach", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("check", help="consistency-check an execution graph")
    p.add_argument("graph", help="execution graph JSON file")
    p.add_argument("--json", action="store_true", help="always emit the JSON verdict")
    p.add_argument("--dot", metavar="FILE", help="also render the graph to DOT")
    p.set_defaults(fn="_cmd_check")

    p = sub.add_parser("trace-validate", help="validate a trace file")
    p.add_argument("trace", help="trace JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="_cmd_trace_validate")

    p = sub.add_parser("reduce", help="collapse a trace")
    p.add_argument("trace", help="trace JSON file")
    p.add_argument("--program", required=True, metavar="FILE", help="program the trace executes")
    p.add_argument("--rmw", action="store_true", help="treat update events as latest writes")
    p.add_argument("--fixpoint", action="store_true", help="reduce until irreducible")
    p.add_argument("--json", action="store_true", help="bundle trace and step log as JSON")
    p.add_argument("--dot", metavar="FILE", help="render the reduced graph to DOT")
    p.add_argument("-o", "--output", metavar="FILE", help="write the result here instead of stdout")
    p.set_defaults(fn="_cmd_reduce")

    p = sub.add_parser("reach", help="decide reachability under a context budget")
    p.add_argument("program", help="program text file")
    p.add_argument("--contexts", type=int, help="maximum number of runs")
    p.add_argument("--rmws", type=int, help="maximum number of update events (default 0)")
    p.add_argument("--event-cap", type=int,
                   help="cap on placed events (default: small-model bound; required with --naive)")
    p.add_argument("--naive", action="store_true",
                   help="exhaustive graph enumeration up to --event-cap (ignores --contexts and --rmws)")
    p.add_argument("--emit-witness", metavar="FILE", help="write the witness trace JSON here")
    p.add_argument("--seed", type=int, help="branch-order shuffle seed (0 = canonical order)")
    p.add_argument("--max-nodes", type=int, help="stop as inconclusive after expanding this many nodes")
    p.add_argument("--config", metavar="FILE", help="key=value presets for budget flags")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE", help="render the witness graph to DOT")
    p.set_defaults(fn="_cmd_reach")

    p = sub.add_parser("enumerate", help="list all consistent graphs up to an event count")
    p.add_argument("program", help="program text file")
    p.add_argument("--max-events", type=int, required=True)
    p.add_argument("--limit", type=int, help="stop after this many graphs (0 lists none)")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn="_cmd_enumerate")

    pcp = sub.add_parser("pcp", help="correspondence-problem gadget tooling")
    pcp_sub = pcp.add_subparsers(dest="pcp_verb", required=True, metavar="verb")

    p = pcp_sub.add_parser("compile", help="compile an instance to a 12-thread program")
    p.add_argument("instance", help="instance file: 'pair <word> : <word>' per line")
    p.add_argument("--json", action="store_true", help="emit program plus role metadata")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn="_cmd_pcp_compile")

    p = pcp_sub.add_parser("witness", help="build the witness trace for a solution")
    p.add_argument("instance")
    p.add_argument("--solution", required=True, metavar="I,J,...", help="comma-separated pair indices")
    p.add_argument("--check", action="store_true",
                   help="assert consistency and both audits before emitting")
    p.add_argument("--dot", metavar="FILE")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn="_cmd_pcp_witness")

    p = pcp_sub.add_parser("audit", help="run the no-skipping and monotonicity audits")
    p.add_argument("graph", help="execution graph JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="_cmd_pcp_audit")

    p = sub.add_parser("bound", help="print the small-model length bound")
    p.add_argument("--program", required=True, metavar="FILE")
    p.add_argument("--contexts", type=int)
    p.add_argument("--rmws", type=int)
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="_cmd_bound")

    return parser


#: per handler and --naive, the flags that bound what it keeps in memory, named if it runs out
_MEMORY_BOUNDS = {
    ("_cmd_reach", False): "--event-cap and --max-nodes bound a search",
    ("_cmd_reach", True): "--event-cap bounds the enumeration",
    ("_cmd_enumerate", False): "--max-events bounds the enumeration",
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)  # looked up per call, so a replaced handler takes effect
    except (_UsageError, RaReachError, OSError, ValueError) as exc:
        print(f"ra-reach: error: {exc}", file=sys.stderr)
        return EX_USAGE if isinstance(exc, _UsageError) else EX_DATAERR
    except Exception as exc:  # failed assertions and anything else unexpected
        bound = isinstance(exc, MemoryError) and _MEMORY_BOUNDS.get((args.fn, getattr(args, "naive", False)))
        hint = f" ({bound})" if bound else ""
        print(f"ra-reach: internal error: {str(exc) or type(exc).__name__}{hint}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
