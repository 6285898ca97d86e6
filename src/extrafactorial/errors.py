"""Exception hierarchy for the extrafactorial package.

Every domain error derives from :class:`XfsError`; the CLI maps these to
exit code 1 and reports the concrete class name on stderr.
"""

from __future__ import annotations


class XfsError(Exception):
    """Base class for all domain errors raised by this package."""


# graph construction and access


class OrderTooSmall(XfsError):
    """Graph or enumeration order below the minimum of 3."""


class MissingEdge(XfsError):
    """A complete graph was declared but at least one pair has no weight."""


class DuplicateEdge(XfsError):
    """The same pair was given twice with conflicting weights."""


class NonFiniteWeight(XfsError):
    """Edge weights must be finite reals (no NaN or infinity)."""


class SelfLoop(XfsError):
    """An edge must join two distinct vertices."""


class VertexOutOfRange(XfsError):
    """Vertex id is negative or not below the graph order."""


class BadRange(XfsError):
    """Random weight range must satisfy lo <= hi with finite bounds."""


class GraphSyntaxError(XfsError):
    """Malformed graph text; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# cycle enumeration


class NotAPermutation(XfsError):
    """Cycle input must list distinct vertices."""


class NotCanonical(XfsError):
    """A directly constructed cycle must be in canonical rotation/reflection."""


class TooShort(XfsError):
    """Cycles need at least three vertices."""


class EnumerationCapExceeded(XfsError):
    """Requested order exceeds the configured enumeration cap."""


class OrderMismatch(XfsError):
    """Cycle and graph (or two profiles) have different orders."""


class SameEdge(XfsError):
    """An edge pair must consist of two different edges."""


# closed-form statistics


class NoComplementCycles(XfsError):
    """At order 3 every cycle traverses every edge, so no complement exists."""


class FactorialOverflow(XfsError):
    """Factorial multipliers exceed the exact double-precision range."""
