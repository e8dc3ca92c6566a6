"""Exception types shared across the package."""

from __future__ import annotations


class BatchSchedError(Exception):
    """Base class for every error raised by batchsched."""


class DimensionMismatch(BatchSchedError):
    """A matrix or list has the wrong shape or length; the message names the field."""


class NotPositiveDefinite(BatchSchedError):
    """A matrix that must be symmetric positive definite is not; the message names it."""


class NumericOverflow(BatchSchedError):
    """A computed quantity left the double range; the message names it and its time index."""


class NonIncreasingTimes(BatchSchedError):
    """Measurement times are not strictly increasing."""


class BudgetOutOfRange(BatchSchedError):
    """A per-time sensor budget falls outside [0, m]."""


class InvalidArgument(BatchSchedError):
    """An argument violates a documented precondition."""


class SensorAlreadySelected(BatchSchedError):
    """Attempt to add a sensor to a time slot that already contains it."""


class EnumerationCapExceeded(BatchSchedError):
    """Exhaustive schedule enumeration was requested above the configured cap."""


class GuaranteeViolated(BatchSchedError):
    """The certified approximation ratio failed: an implementation bug.

    ``details`` carries the full offending instance for reproduction.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details if details is not None else {}


class PropertyViolated(BatchSchedError):
    """A fuzzed structural property failed; carries the counterexample."""

    def __init__(self, message: str, counterexample: dict | None = None):
        super().__init__(message)
        self.counterexample = counterexample if counterexample is not None else {}
