"""Self-test of the benchmark itself; run from the root of a checkout::

    python3 bench/selftest.py

It checks that

1. every workload runs at tiny size, untraced and traced, with no failed op;
2. the traced runs leave every wrapped rareach attribute as they found it;
3. a deliberately wrong reference answer is reported as failed ops.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import importlib
import sys

from run import load_program, run_workload
from spans import MODULES
from workloads import SETUPS

SEED = 7


def attributes() -> dict[str, dict[str, object]]:
    """Every attribute of the rareach modules and of ExecutionGraph, by identity."""
    out = {m: dict(vars(importlib.import_module(f"rareach.{m}"))) for m in MODULES}
    out["ExecutionGraph"] = dict(vars(importlib.import_module("rareach.graph").ExecutionGraph))
    return out


def changed(before: dict, after: dict) -> list[str]:
    return [
        f"{owner}.{name}"
        for owner, attrs in before.items()
        for name, val in attrs.items()
        if after[owner].get(name) is not val
    ]


def expect_reachable(ops) -> None:
    ops[0].ref["allowed"] = ["reachable"]


def expect_a_step(ops) -> None:
    ops[-1].ref["steps"] = 1


def main() -> int:
    cli = load_program()
    failures: list[str] = []

    before = attributes()
    for name in SETUPS:
        for trace in (False, True):
            record = run_workload(cli, name, SEED, 0.1, trace, tiny=True)
            bad = [f"{op['op']}: {p}" for op in record["ops"] for p in op["problems"]]
            print(f"smoke {name} trace={int(trace)}: {record['attempted']} ops, {record['failed']} failed")
            if record["failed"] or not record["attempted"]:
                failures.append(f"smoke run of {name} (trace={int(trace)}) failed: {bad}")
    moved = changed(before, attributes())
    print(f"attributes changed by tracing: {moved or 'none'}")
    if moved:
        failures.append(f"traced runs left wrapped attributes behind: {moved}")

    for name, plant in (("gadget-search", expect_reachable), ("reduce-fixpoint", expect_a_step)):
        record = run_workload(cli, name, SEED, 0.1, False, tiny=True, edit_refs=plant)
        share = record["metrics"]["ok_share"]["value"]
        print(f"wrong reference on {name}: {record['failed']} of {record['attempted']} ops failed")
        if not record["failed"] or share == 1.0:
            failures.append(f"a wrong reference on {name} went unreported")

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
