"""Reachability analysis for release/acquire programs under context bounds.

The package decomposes along the data it works on:

* :mod:`rareach.model` — programs as families of labelled transition systems
* :mod:`rareach.graph` — execution graphs (po / rf / mo) and happens-before
* :mod:`rareach.consistency` — the four release/acquire axioms
* :mod:`rareach.trace` — run partitions, context budgets, hb-linearizations
* :mod:`rareach.reduction` — trace collapsing and the small-model bound
* :mod:`rareach.decider` — naive and budgeted reachability engines
* :mod:`rareach.pcp` — the correspondence-problem gadget and its audits
* :mod:`rareach.cli` — the ``ra-reach`` command line tool
"""

from .consistency import Axiom, Verdict, check_axiom, check_ra
from .decider import (
    ReachStatus,
    ReachVerdict,
    SearchConfig,
    SearchStats,
    bounded_reach,
    enumerate_graphs,
    naive_reach,
)
from .errors import (
    GadgetMismatch,
    GraphError,
    InternalValueMismatch,
    InvalidSolution,
    NotCollapsible,
    ParseError,
    RaReachError,
    TraceError,
)
from .graph import Event, EventId, ExecutionGraph, build_graph, reaches, thread_word
from .model import (
    INIT_TID,
    Label,
    Lts,
    Op,
    Program,
    parse_program,
    read,
    rmw,
    serialize_program,
    write,
)
from .pcp import (
    GadgetProgram,
    PcpInstance,
    check_monotonicity,
    check_no_skipping,
    compile_pcp,
    parse_pcp,
    pcp_witness,
    verify_solution,
)
from .reduction import (
    CollapsiblePair,
    Summary,
    collapsible,
    find_collapsible,
    lw,
    reduce,
    reduce_fixpoint,
    reduction_steps,
    small_model_bound,
    summary,
    summary_space,
)
from .trace import (
    ContextBudget,
    Run,
    Trace,
    canonical_trace,
    counts,
    make_trace,
    range_in_run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
