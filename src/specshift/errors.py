"""Error taxonomy shared by the library and the CLI.

Every error a caller's input can cause is a ``SpecshiftError``, and its class
alone decides what the CLI does with it: ``main`` prints
``<label> error: <message>`` and exits with the class's ``exit_code``.  Any
other exception is a fault in the program and propagates with its traceback.
Each class also keeps a builtin base (``ValueError`` or ``RuntimeError``), so
library callers may catch those.
"""


class SpecshiftError(Exception):
    """Input at fault; subclasses set ``exit_code`` and ``label``."""


class ConfigError(SpecshiftError, ValueError):
    """Bad configuration key, value, or combination."""

    exit_code = 2
    label = "config"


class DataError(SpecshiftError, ValueError):
    """Unusable input data: parse failures, ragged rows, too-short series."""

    exit_code = 3
    label = "data"


class NumericError(SpecshiftError, RuntimeError):
    """Non-finite values where finite ones are required, e.g. NaN loss."""

    exit_code = 4
    label = "numeric"


class CheckpointError(SpecshiftError, ValueError):
    """Malformed or incompatible checkpoint file."""

    exit_code = 5
    label = "checkpoint"
