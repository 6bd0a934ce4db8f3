"""The verdict sweep: 305 programs at four budgets, and its stored verdicts.

Programs: ``corpus.random_program`` seeds 0-199, seeds 0-99 with
``rmw_prob=0.3``, the three loop programs of ``tests/test_decider.py`` and
``corpus.LOOPY_RMW``.  Budgets ``(contexts, rmws, cap)``: the memo tests'
``MEMO_BUDGETS``, (1,0,5), (2,1,6), (3,2,6), (4,4,5).

``sweep_verdicts.json`` holds, per case, the memo search's status under
``reach``'s settings and whether the reference, ``oracle.view_reach`` (the
RA view semantics, which shares no code with the search), reaches at the cap
and at cap + 3.  ``tests/test_sweep.py`` reruns the memo search and the
reference at the cap; only this script's ``--write`` recomputes the cap + 3
column.  Regenerate the file (about 15 s) with::

    PYTHONPATH=src python -m tests.sweep --write
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from rareach.decider import SearchConfig, bounded_reach
from rareach.model import Program, parse_program
from rareach.trace import ContextBudget

from tests import corpus
from tests.oracle import view_reach
from tests.test_decider import CORR_LOOP, MEMO_BUDGETS, MP_LOOP, WRC_LOOP

VERDICTS = Path(__file__).with_name("sweep_verdicts.json")


def programs() -> dict[str, Program]:
    progs = {f"random-{s}": corpus.random_program(s) for s in range(200)}
    progs.update((f"random-rmw-{s}", corpus.random_program(s, rmw_prob=0.3)) for s in range(100))
    progs.update(zip(("mp-loop", "corr-loop", "wrc-loop"), map(parse_program, (MP_LOOP, CORR_LOOP, WRC_LOOP))))
    progs.update((f"loopy-rmw-{i}", p) for i, p in enumerate(corpus.loopy_rmw_programs()))
    return progs


def cases() -> dict[str, tuple[Program, ContextBudget, int]]:
    """Each case by its name, ``<program> <contexts>,<rmws>,<cap>``."""
    return {
        f"{name} {c},{r},{cap}": (prog, ContextBudget(c, r), cap)
        for name, prog in programs().items()
        for c, r, cap in MEMO_BUDGETS
    }


def memo_status(prog: Program, budget: ContextBudget, cap: int) -> str:
    """The status ``reach`` reports: the memo search at the cap."""
    return bounded_reach(prog, SearchConfig(budget, cap, memo=True)).status.value


def reference_reaches(prog: Program, budget: ContextBudget, cap: int) -> bool:
    """Whether the reference reaches within the budget and ``cap`` events."""
    return view_reach(prog, budget.contexts, budget.rmws, cap)


def load() -> dict[str, list]:
    """Per case its stored memo status and whether the reference reaches at the cap and at cap + 3."""
    return json.loads(VERDICTS.read_text())


def row(prog: Program, budget: ContextBudget, cap: int) -> list:
    """A case's stored row: the memo status, and whether the reference reaches at the cap and at cap + 3."""
    return [memo_status(prog, budget, cap), reference_reaches(prog, budget, cap), reference_reaches(prog, budget, cap + 3)]


def write() -> None:
    rows = [f"  {json.dumps(case)}: {json.dumps(row(*args))}" for case, args in cases().items()]
    VERDICTS.write_text("{\n" + ",\n".join(rows) + "\n}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="rerun both sides and rewrite sweep_verdicts.json")
    if parser.parse_args().write:
        write()
    stored = load()
    for status in ("reachable", "unreachable-within-bound", "inconclusive"):
        shown = [row[1:] for row in stored.values() if row[0] == status]
        at, past = map(sum, zip(*shown)) if shown else (0, 0)
        print(f"{status}: {len(shown)} (the reference reaches {at} at the cap, {past} at cap + 3)")
    at, past = map(sum, zip(*(row[1:] for row in stored.values())))
    print(f"reference reaches: {at} at the cap, {past} at cap + 3, of {len(stored)}")


if __name__ == "__main__":
    main()
