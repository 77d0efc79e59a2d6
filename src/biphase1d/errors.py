"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid run configuration (bad key, bad value, malformed file)."""


class SolverError(RuntimeError):
    """A numerical stage failed.

    ``diagnostics`` holds the last attempted state pieces for post-mortem
    inspection (for a failed run, the records written so far).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SingularSystemError(SolverError):
    """Linear solve hit a (near-)zero pivot.

    ``index`` is the row of the offending pivot when it could be located.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StepFailure(SolverError):
    """A time step could not be completed within the retry budget."""
