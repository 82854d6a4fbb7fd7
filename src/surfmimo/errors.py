"""Exception types used across surfmimo."""


class SurfMimoError(Exception):
    """Base class for all surfmimo errors."""


class ConfigError(SurfMimoError):
    """Invalid configuration input.

    Carries a list of human-readable messages (with line/column positions
    when available) so callers can report every problem at once.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class PresetError(ConfigError):
    """A preset file (materials, MCS table, scene) is malformed or out of range."""


class DomainError(SurfMimoError):
    """An argument is outside the model's valid domain."""


class NearFieldError(DomainError):
    """Distance below the model reference distance, where the gain laws diverge."""


class DegenerateMaterialError(DomainError):
    """Material constants make the propagation model undefined (e.g. beta = 0)."""


class StreamSeparationError(SurfMimoError):
    """Channel matrix is singular; spatial streams cannot be separated."""


class UndefinedConditionError(SurfMimoError):
    """Condition number is undefined (zero matrix)."""


class ResultIOError(SurfMimoError):
    """Reading or writing a result file failed; message carries the path."""
