"""Exception types shared across the package."""


class KreduxError(Exception):
    """Base class for all kredux errors."""


class NotPositive(KreduxError):
    """A (1,1)-form failed a required positivity check.

    Carries the worst grid node and the offending eigenvalue.
    """

    def __init__(self, message, node=None, eigenvalue=None):
        super().__init__(message)
        self.node = node
        self.eigenvalue = eigenvalue


class OutOfRange(KreduxError):
    """A level-set target lies outside the fiberwise range of the moment map.

    ``missing`` is a boolean mask over spatial nodes marking where the
    fiberwise solve failed.  This is a first-class diagnostic: callers may
    inspect the mask instead of treating the condition as fatal.
    """

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing


class Degenerate(KreduxError):
    """A denominator (top-form density or metric determinant) vanished."""


class PositivityLost(KreduxError):
    """A flow left the cone of positive forms at time ``t``."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class StepUnstable(KreduxError):
    """A flow step went non-finite, or energy monotonicity kept failing after
    the maximum number of step halvings."""


class SolvabilityViolated(KreduxError):
    """The linear solve in a flow step has an incompatible right-hand side."""


class ClassNotFixed(KreduxError):
    """A flow that requires a fixed Kahler class was requested where the class moves."""


class NonConcave(KreduxError):
    """The fiberwise inversion needs a strictly concave-in-time path."""


class OutOfWindow(KreduxError):
    """A requested fiber coordinate lies outside the realized lift window."""


class HypothesisViolated(KreduxError):
    """A stated sign hypothesis fails; ``where`` lists offending samples."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
