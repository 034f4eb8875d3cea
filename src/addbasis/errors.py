"""Exception hierarchy for the toolkit.

Structural misuse (malformed field values, wrong types) raises plain
ValueError/TypeError; the classes here signal domain conditions that a
caller may legitimately want to catch and handle.
"""


class ToolkitError(Exception):
    """Base class for all domain-level errors raised by this package."""


class EmptyOperand(ToolkitError):
    """An arithmetic operation received the empty set."""


class NotASubset(ToolkitError):
    """A removal or invariant was requested for X not contained in A."""


class TooFewElements(ToolkitError):
    """The operation needs at least two elements (gcd of differences)."""


class NoQualifyingPair(ToolkitError):
    """No pair of elements satisfies the gap constraint."""


class EmptyComplement(ToolkitError):
    """A \\ X is empty, so there is nothing to minimise over."""


class OrderCapExceeded(ToolkitError):
    """No order was found up to the cap; basis status is undecided."""

    def __init__(self, h_cap: int, message: str | None = None):
        self.h_cap = h_cap
        super().__init__(message or f"no order found for h <= {h_cap}")


class NotABasisCertificate(ToolkitError):
    """The set is provably not an asymptotic basis.

    ``certificate`` is a short human-readable reason: the set is finite,
    or the common divisor of all its differences.
    """

    def __init__(self, certificate: str):
        self.certificate = certificate
        super().__init__(f"not an asymptotic basis ({certificate})")


class NoQualifyingDivisor(ToolkitError):
    """No divisor d | n with d >= rho + 1 exists."""


class ZeroDensity(ToolkitError):
    """A density-based bound was requested for a zero-density set."""


class BoundViolation(ToolkitError):
    """A proven inequality failed on a verified instance.

    Every bound this toolkit checks is a theorem, so a violation means an
    implementation bug, never a mathematical discovery.  Treated as fatal.
    """


class PersistenceError(ToolkitError):
    """Sweep result file is inconsistent with the requested run."""


class InternalInconsistency(ToolkitError):
    """An internal invariant failed (bug trap, should be unreachable)."""
