"""Error taxonomy, aligned with the CLI exit codes.

ConfigError       -> exit 1 (usage / bad configuration)
TensorFormatError -> exit 2 (I/O or container format problem)
ShapeError        -> exit 3 (shape / contract violation)
"""


class MgdfisError(Exception):
    """Base class for all library errors."""


class ConfigError(MgdfisError):
    """Invalid configuration: unknown key, bad value, inconsistent counts."""


class TensorFormatError(MgdfisError):
    """Malformed tensor container. Carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class ShapeError(MgdfisError):
    """Shape contract violation. Names the op and the offending axis."""

    def __init__(self, op, axis, expected, actual):
        self.op = op
        self.axis = axis
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"{op}: axis '{axis}' expected {expected}, got {actual}"
        )
