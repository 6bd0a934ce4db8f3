"""Exception types shared across the package.

Every error raised on malformed user input derives from :class:`RaReachError`
so callers (and the CLI) can distinguish bad input from genuine bugs.
:class:`InternalValueMismatch` is the one exception to that rule: it signals a
broken internal invariant and deliberately derives from ``RuntimeError``.
"""

from __future__ import annotations


class RaReachError(Exception):
    """Base class for all input-level errors."""


class ParseError(RaReachError):
    """A text input (program, graph, trace, instance file) is malformed."""


class UnknownThread(RaReachError):
    """A thread id was used that the program does not declare."""


class UnknownEvent(RaReachError):
    """An event id was used that the graph or trace does not contain."""


# --- execution-graph construction -----------------------------------------


class GraphError(RaReachError):
    """An execution graph fails a well-formedness requirement."""


class DuplicateId(GraphError):
    """Two events share one id."""


class MoNotTotal(GraphError):
    """A location's modification-order row is not a total order over its writes."""


class MissingWriter(GraphError):
    """A read event has no reads-from edge."""


class ValueMismatch(GraphError):
    """A reads-from edge pairs a read with a write of a different value."""


# --- traces ----------------------------------------------------------------


class TraceError(RaReachError):
    """A run sequence fails a trace well-formedness requirement."""


class NotPartition(TraceError):
    """The runs do not partition the graph's non-init events."""


class NotHbExtension(TraceError):
    """The concatenated run order contradicts happens-before."""


class RunNotContiguous(TraceError):
    """A run's events are not one contiguous program-order segment."""


class RunThreadMixed(TraceError):
    """A run mixes events of different threads."""


# --- reduction -------------------------------------------------------------


class NotCollapsible(RaReachError):
    """reduce() was asked to remove a range that is not collapsible."""


class InternalValueMismatch(RuntimeError):
    """A reads-from rewire would change an observed value.

    This cannot happen when the input trace is well formed and its graph is
    consistent; seeing it means the caller handed the engine a corrupt trace.
    """


# --- PCP gadget ------------------------------------------------------------


class InvalidSolution(RaReachError):
    """An index sequence is not a solution of the instance."""


class GadgetMismatch(RaReachError):
    """A graph was audited that is not over the gadget's threads/locations."""
