"""Exception types shared across the package."""


class QsolveError(Exception):
    """Base class for all errors raised by this package."""


class QubitBudgetError(QsolveError):
    """A register or layout would exceed the configured qubit cap."""


class ProblemValidationError(QsolveError):
    """A structurally well-formed problem violates semantic rules.

    ``diagnostics`` lists every violation found, not just the first.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class ProblemFileError(QsolveError):
    """A problem file could not be read or parsed; message carries location."""


class AlgorithmMismatchError(QsolveError):
    """The requested algorithm cannot solve the given problem type."""
