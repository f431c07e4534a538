"""Exception types shared across the library."""


class LripLabError(Exception):
    """Base class for all library errors."""


class InputError(LripLabError):
    """Invalid argument: dimension mismatch, non-finite entries, bad parameter."""


class ConfigError(LripLabError):
    """Experiment configuration could not be parsed or validated."""

