"""Exception types shared across the package.

Every error raised by pawpulse derives from :class:`PawpulseError`, so
callers (and the CLI) can separate data problems from programming bugs.
"""


class PawpulseError(Exception):
    """Base class for all pawpulse errors."""


class ConfigError(PawpulseError, ValueError):
    """Invalid configuration or profile parameter."""


class RangeError(PawpulseError, ValueError):
    """A numeric field is outside its permitted range."""


class OrderError(PawpulseError, ValueError):
    """Timestamps are not strictly increasing."""


class DomainError(PawpulseError, ValueError):
    """A formula argument is outside the formula's domain."""


class DegenerateFitError(PawpulseError, ValueError):
    """Calibration data does not determine a line (all ratios equal)."""


class InsufficientDataError(PawpulseError, ValueError):
    """Fewer calibration pairs than the fit requires."""


class MissingVitalsError(PawpulseError, ValueError):
    """Vitals lack the fields needed for emotion discretization."""


class WireError(PawpulseError, ValueError):
    """Base class for wire-format decode failures."""


class BadSyncError(WireError):
    """Frame does not start with the sync pattern."""


class BadVersionError(WireError):
    """Frame carries an unsupported protocol version."""


class BadCrcError(WireError):
    """Frame checksum mismatch."""


class TruncatedError(WireError):
    """Not enough bytes for a complete frame."""


class SeqError(PawpulseError, ValueError):
    """Session record sequence numbers are not 0, 1, 2, ... in stored order."""


class SessionParseError(PawpulseError, ValueError):
    """A session file line could not be parsed.

    Carries the 1-based line number in ``line``.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptySessionError(PawpulseError, ValueError):
    """Session has no usable vitals records."""
