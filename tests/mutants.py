"""Mutation check of the search's rules, its node budget, its bound, the RA axioms, the reduction's collapse test, the indexed program form and the parser: each mutant is one text edit, run against Tier-1 on its own copy.

A mutant is killed when some Tier-1 test fails on a copy of the repository
with its edit applied; a survivor means no test tells the rule from its
mutant.  Run from the repository root (one Tier-1 run per mutant)::

    python -m tests.mutants                   # every mutant
    python -m tests.mutants cover-deeper ...  # only the named ones

It prints one line per mutant, with the first failing test of each killed
one, and exits 1 if any mutant survived.  Tier-1 runs with a fixed
Hypothesis seed, so a rerun reports the same first failing tests.  This
file is not part of Tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DECIDER = "src/rareach/decider.py"
REDUCTION = "src/rareach/reduction.py"
MODEL = "src/rareach/model.py"
CONSISTENCY = "src/rareach/consistency.py"
#: seconds one Tier-1 run may take before the mutant counts as killed by the time limit
TIMEOUT_S = 900


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # text that occurs exactly once in the file
    new: str
    what: str


MUTANTS = {
    # the memo's covering relation (decider.bounded_reach's covered())
    "cover-other-thread": Mutant(
        DECIDER,
        "r1 + (a1 != a) <= r",
        "r1 <= r",
        "a record covers a node of another active thread without the run that thread may still have to open",
    ),
    "cover-more-updates": Mutant(DECIDER, "d1 <= n and u1 <= u and", "d1 <= n and", "a record covers a node that spent fewer updates"),
    "cover-deeper": Mutant(DECIDER, "if d1 <= n and u1 <= u", "if u1 <= u", "a record covers a node that lies higher above the cap"),
    # equivalent in verdicts and counters: covering is transitive, so a record the new one covers covers nothing
    # the new one does not, and keeping it costs only memory; TestMemo::test_records_form_an_antichain sees it
    "cover-keep-dominated": Mutant(
        DECIDER,
        "memo[key] = (*[old for old in recs if not (n <= old[3] and u <= old[2] and r + (a != old[0]) <= old[1])], rec)",
        "memo[key] = (*recs, rec)",
        "a key keeps the records a new one covers, so its records are no antichain",
    ),
    # the node budget (max_nodes)
    "budget-ignores-covered": Mutant(
        DECIDER, "covered += 1", "pass", "a covered node spends none of the node budget, so an uncapped loop can skip nodes without end"
    ),
    # the pruning rule (violates)
    "read-coherence": Mutant(
        DECIDER,
        "if lab.op.reads and top > at[src]:",
        "if lab.op.reads and (top > at[src] or top == at[src] > 0):",
        "a read may not take the non-init write its thread's view already holds",
    ),
    "write-coherence": Mutant(
        DECIDER, "if top >= pos:", "if top > pos:", "a write may go in right before the write its thread's view holds"
    ),
    "update-source": Mutant(
        DECIDER,
        "return lab.op is Op.RMW and row[pos - 1] != src",
        "return False",
        "an update may go in anywhere above its thread's view, not only right after the write it reads",
    ),
    "wedge-after-update": Mutant(
        DECIDER,
        "if pos < len(row) and events[row[pos]].op is Op.RMW:",
        "if pos < len(row) and (events[row[pos]].op is Op.RMW or events[row[pos - 1]].op is Op.RMW):",
        "an insertion right after an update, not at the row's end, counts as a wedge too",
    ),
    # settled frames (tabulate / settle): a child corrects its parent's total for the threads its event can change
    "settle-ignore-location": Mutant(
        DECIDER,
        "tids if lab.op is Op.RMW else on[i] if lab.op.writes else (t0,)",
        "tids if lab.op is Op.RMW else (t0,)",
        "a write corrects only its own thread's count, whatever other threads have a label on its location",
    ),
    "settle-ignore-spending": Mutant(
        DECIDER,
        "tids if lab.op is Op.RMW else on[i] if lab.op.writes else (t0,)",
        "on[i] if lab.op.writes else (t0,)",
        "an update, which may spend the update budget, corrects only the threads on its location",
    ),
    "settle-every-thread": Mutant(
        DECIDER,
        "kept, cut = count(t0)",
        "kept, cut = map(sum, zip(*map(count, tids)))",
        "a child with no run left to open sums every thread, not only the one the context budget lets move",
    ),
    "settle-never-rebuild": Mutant(
        DECIDER,
        "table = tabulate() if len(runs) < budget.contexts else None",
        "table = table or (tabulate() if len(runs) < budget.contexts else None)",
        "the parent's table is built at the first frame only and never rebuilt",
    ),
    "settle-skip-own-thread": Mutant(
        DECIDER,
        "else on[i] if lab.op.writes",
        "else [t for t in on[i] if t != t0] if lab.op.writes",
        "a write leaves its own thread's count as at the parent when that thread is listed on the location",
    ),
    "settle-total-after-closing": Mutant(
        DECIDER,
        "if len(runs) >= budget.contexts:\n",
        "if table is None:\n",
        "a child that opened the last run corrects the parent's total, though only its own thread may move",
    ),
    "settle-may-hit": Mutant(
        DECIDER,
        "if any(image & finals[u] for _, _, image in forms[u][subsets[u]]):",
        "if False:",
        "a frame whose one unfinished thread can step into its final state is settled, so its hit is counted, not found",
    ),
    # the count of a settled frame (count): a plain write's closed form while no update is placed
    "count-cut-at-view": Mutant(
        DECIDER, "cut += top\n", "cut += top - 1\n", "a plain write's closed form keeps the insertion point right at its thread's view"
    ),
    "count-closed-after-update": Mutant(
        DECIDER,
        'flags["rmws"] >= budget.rmws, not flags["rmws"]',
        'flags["rmws"] >= budget.rmws, True',
        "a plain write is counted in closed form after an update is placed too, so no insertion point wedges it",
    ),
    # the branch shuffle (explore_order): a frame one event below the cap keeps its canonical order and settles
    "shuffle-capped-frames": Mutant(
        DECIDER,
        "if rng is not None and n + 1 < cap:",
        "if rng is not None:",
        "a seed shuffles the frames one event below the cap too, so settling them changes what the generator draws",
    ),
    "never-settle-under-shuffle": Mutant(
        DECIDER,
        "truncated and settle(table, rec)",
        "truncated and rng is None and settle(table, rec)",
        "a seeded search places every capped child instead of counting its settled frames",
    ),
    # the memo's state key (state_key, and the tags apply records for it)
    "key-no-cut": Mutant(
        DECIDER,
        "min([at[v[i]] for v in hs])",
        "0",
        "rows are keyed from their foot, not from the lowest position a head sees, so states that differ only below the cut get distinct keys",
    ),
    "key-no-update-bit": Mutant(
        DECIDER,
        "tags.append((lab.val_w, lab.op is Op.RMW))",
        "tags.append((lab.val_w, False))",
        "a write's tag drops whether it is an update, so a plain write and an update of the same value share a key",
    ),
    "key-no-clamp": Mutant(
        DECIDER,
        "p - d if (p := at[views[w][j]]) > d else 0",
        "(p := at[views[w][j]]) - d",
        "a writer's view below the cut keeps its (negative) offset instead of reading as the cut",
    ),
    # the indexed program form (model.Form)
    "form-last-destination": Mutant(
        MODEL,
        "row[key] = row[key] | bit if key in row else bit",
        "row[key] = bit",
        "a nondeterministic label keeps only its last destination in a state's row",
    ),
    # the RA axioms (consistency.check_ra), which the exhaustive enumerator and every witness check read
    "axiom-no-hb-cycle": Mutant(
        CONSISTENCY,
        "return None if graph._hb_cycle is None else (graph._hb_cycle,)",
        "return None",
        "a graph whose happens-before has a cycle passes",
    ),
    "axiom-write-coherence-next-only": Mutant(
        CONSISTENCY,
        "earlier |= 1 << idx[w2]",
        "earlier = 1 << idx[w2]",
        "write coherence compares a write only with its immediate mo-predecessor",
    ),
    "axiom-read-coherence-skips-next": Mutant(
        CONSISTENCY,
        "[mo_pos[w] + 1 :]",
        "[mo_pos[w] + 2 :]",
        "read coherence ignores the write right after the one read in mo",
    ),
    "axiom-atomicity-skips-next": Mutant(
        CONSISTENCY,
        "[pw + 1 : pr]",
        "[pw + 2 : pr]",
        "atomicity lets one write sit between an update and its source in mo",
    ),
    # the collapse test of the witness reduction (reduction._RunSweep.collapsible)
    "collapse-any-summaries": Mutant(
        REDUCTION,
        "if self.sid[i] != self.sid[j] or self.read_out",
        "if self.read_out",
        "two positions with different summaries are collapsible",
    ),
    "collapse-observed-writes": Mutant(
        REDUCTION,
        "or self.read_out[j + 1] != self.read_out[i + 1]:",
        ":",
        "a range may hold a write that a read of another run observes",
    ),
    "collapse-update-read-later": Mutant(
        REDUCTION,
        "if any(i < q <= j < p for q, p in self._update_reads.items()):",
        "if False:",
        "outside rmw_mode, a range may hold an update that a later read of the run observes",
    ),
    "collapse-updates-in-rmw-mode": Mutant(
        REDUCTION,
        "if self.rmw_mode and any(g.events[w1].op is not Op.WRITE for w1, _ in moved):",
        "if False:",
        "in rmw_mode, a range may move a location's latest write off an update",
    ),
    "collapse-hb-distinguishable": Mutant(
        REDUCTION,
        "return not others or not any(",
        "return True or not any(",
        "the latest writes that a collapse changes may differ in what of other threads happens after them",
    ),
    # the small-model bound: bounded_reach's truncation test and small_model_bound_formula's stop_above;
    # not listed: ``>`` for the guard's ``>=`` only stops later, so it stays sound and no test can kill it
    "truncated-at-bound": Mutant(
        DECIDER, "(cap < bound or", "(cap <= bound or", "a search truncated at the bound itself is inconclusive"
    ),
    "truncated-past-ceiling": Mutant(
        DECIDER,
        "(cap < bound or bound > _BOUND_CEILING)",
        "(cap < bound)",
        "a search truncated at a bound past the ceiling, which stands for a larger one, decides",
    ),
    "stop-one-bit-early": Mutant(
        REDUCTION,
        ">= stop_above.bit_length():",
        ">= stop_above.bit_length() - 1:",
        "stop_above + 1 stands for a bound that may not exceed stop_above",
    ),
    "stop-on-an-overestimate": Mutant(
        REDUCTION,
        "s.bit_length() - 1 + (contexts - 1)",
        "s.bit_length() + (contexts - 1)",
        "the guard's power of two may exceed s·a^(c-1), so stop_above + 1 may stand for a smaller bound",
    ),
    "stop-at-stop-above": Mutant(
        REDUCTION, "return stop_above + 1", "return stop_above", "a bound past stop_above is reported as stop_above"
    ),
    # the program parser (model.parse_program)
    "parse-keeps-duplicates": Mutant(
        MODEL, "if (src, dst, key) in rows:", "if False:", "a transition listed twice in one thread is accepted"
    ),
    "parse-extra-values": Mutant(
        MODEL,
        "if len(vs) != (want := op.reads + op.writes):",
        "if len(vs) < (want := op.reads + op.writes):",
        "a transition line with more values than its kind takes is accepted (the count test is >=, not ==)",
    ),
    "parse-undeclared-zero": Mutant(
        MODEL,
        "if \"0\" not in vals:",
        "if False:",
        "a location left out of init defaults to 0 even when 0 is not a declared value",
    ),
}


def mutate(root: Path, mutant: Mutant) -> None:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.path}: the mutated text must occur exactly once:\n{mutant.old}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tier1(root: Path) -> tuple[bool, str]:
    """Whether Tier-1 passes on ``root``, and the first failing test (or why it did not run)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    # a fixed Hypothesis seed draws the same examples in every run, so the first failing test repeats too
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--hypothesis-seed=0"]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"Tier-1 ran past {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return False, failed[0] if failed else f"pytest exited {done.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"mutants to run (default: all): {', '.join(MUTANTS)}")
    names = parser.parse_args().names or list(MUTANTS)
    if unknown := set(names) - MUTANTS.keys():
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    survivors = []
    for name in names:
        with tempfile.TemporaryDirectory(prefix="rareach-mutant-") as tmp:
            root = Path(tmp) / "repo"
            shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*"))
            mutate(root, MUTANTS[name])
            passed, first = run_tier1(root)
        if passed:
            survivors.append(name)
            print(f"SURVIVED {name}: {MUTANTS[name].what}", flush=True)
        else:
            print(f"killed   {name}: {first}", flush=True)
    print(f"{len(names) - len(survivors)} killed, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
