"""Exception types raised across the toolkit.

Plain argument mistakes (bad lag range, zero-length requests) raise
ValueError. Every input the program refuses (a file, a scenario field, a
command-line option, a domain condition) raises OccuscanError, whose message
names the input and why; ``cli.main`` prints it as ``error: <message>``.
"""


class OccuscanError(Exception):
    """Base class for all toolkit errors."""


class SampleDataError(OccuscanError):
    """A non-finite sample or frame energy; ``frame`` is the frame named, if one is."""

    def __init__(self, message: str, frame: int | None = None):
        super().__init__(message)
        self.frame = frame


class UsageError(OccuscanError):
    """A command-line option is out of range; the message names the option."""
