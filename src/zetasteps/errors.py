"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the range an operation is defined for."""


class ResourceGuardError(RuntimeError):
    """A request would exceed a hard resource guard (range or grid size)."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget."""


class ToleranceError(RuntimeError):
    """A requested accuracy target could not be met.

    Carries the error estimate achieved, the worst entry's for a batch.
    """

    def __init__(self, message, best_error=None):
        super().__init__(message)
        self.best_error = best_error
