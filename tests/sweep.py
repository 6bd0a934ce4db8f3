"""The verdict sweep: 305 programs at four budgets, and its stored verdicts.

Programs: ``corpus.random_program`` seeds 0-199, seeds 0-99 with
``rmw_prob=0.3``, the three loop programs of ``tests/test_decider.py`` and
``corpus.LOOPY_RMW``.  Budgets ``(contexts, rmws, cap)``: the memo tests'
``MEMO_BUDGETS``, (1,0,5), (2,1,6), (3,2,6), (4,4,5).

``sweep_verdicts.json`` holds, per case, the memo search's status under
``reach``'s settings and whether the uncached search at cap + 3 (the
reference) reaches.  ``tests/test_sweep.py`` reruns the memo side only.
Regenerate the file, which runs the reference too (about 20 s), with::

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
    """Whether the uncached search reaches at cap + 3."""
    return bounded_reach(prog, SearchConfig(budget, cap + 3)).reachable


def load() -> dict[str, list]:
    """Per case its stored memo status and whether the reference reaches."""
    return json.loads(VERDICTS.read_text())


def write() -> None:
    rows = [
        f"  {json.dumps(case)}: {json.dumps([memo_status(*args), reference_reaches(*args)])}"
        for case, args in cases().items()
    ]
    VERDICTS.write_text("{\n" + ",\n".join(rows) + "\n}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="rerun both sides and rewrite sweep_verdicts.json")
    if parser.parse_args().write:
        write()
    stored = load()
    for status in ("reachable", "unreachable-within-bound", "inconclusive"):
        shown = [reaches for s, reaches in stored.values() if s == status]
        print(f"{status}: {len(shown)} (the reference reaches {sum(shown)})")
    print(f"reference reaches: {sum(reaches for _, reaches in stored.values())} of {len(stored)}")


if __name__ == "__main__":
    main()
