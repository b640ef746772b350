"""Error types shared across the package, mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Input data missing, malformed, or incompatible with the config."""


class DivergenceError(RuntimeError):
    """A numeric run left the finite range it is allowed to occupy.

    run is the index, within a lockstep batch, of the run that left it, and
    None for a computation of one run.
    """

    def __init__(self, message: str, run: int | None = None):
        super().__init__(message)
        self.run = run
