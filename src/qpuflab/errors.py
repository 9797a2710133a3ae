"""Exception types shared across the laboratory.

Every failure mode that callers are expected to handle gets its own class so
tests and the CLI can tell a physics violation apart from plain bad input.
"""

from __future__ import annotations


class QpufLabError(Exception):
    """Base class for all laboratory errors."""


class DimensionMismatch(QpufLabError, ValueError):
    """Operands live in Hilbert spaces of incompatible dimension."""


class DimensionCapExceeded(QpufLabError, ValueError):
    """A requested object would exceed the size cap, or the cap is malformed."""


class InvalidQuantumObject(QpufLabError, ValueError):
    """Constructor input fails a defining invariant (norm, unitarity, ...)."""


class PreconditionViolation(QpufLabError, ValueError):
    """A checker was handed inputs outside its declared precondition."""


class PostSelectionFailure(QpufLabError, RuntimeError):
    """Post-selection was requested on an outcome of negligible ``pass_prob``."""

    def __init__(self, message: str, pass_prob: float | None = None) -> None:
        super().__init__(message)
        self.pass_prob = pass_prob


class MuViolation(QpufLabError, ValueError):
    """A challenge state is not mu-distinguishable from the learned queries."""


class BudgetExceeded(QpufLabError, RuntimeError):
    """An adversary queried the oracle more often than the game allows."""


class BudgetRefusal(QpufLabError, ValueError):
    """An adversary refused to run because its resource needs are not met."""


class PrivilegeRequired(QpufLabError, TypeError):
    """An operation that models extra physical power needs an explicit grant."""
