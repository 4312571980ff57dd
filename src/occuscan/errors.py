"""Exception types raised across the toolkit.

Plain argument mistakes (bad lag range, unsorted threshold lists, zero-length
requests) raise ValueError; everything that names a file, a scenario field, or
a domain condition gets its own class so callers can catch it specifically.
"""


class OccuscanError(Exception):
    """Base class for all toolkit errors."""


class MetaFormatError(OccuscanError):
    """Sidecar .iq.meta file is malformed or missing a required key."""


class TruncationError(OccuscanError):
    """IQ payload length is not a whole number of float32 I/Q pairs."""


class SampleDataError(OccuscanError):
    """A non-finite sample or frame energy; ``frame`` is the frame named, if one is."""

    def __init__(self, message: str, frame: int | None = None):
        super().__init__(message)
        self.frame = frame


class DegenerateFrameError(OccuscanError):
    """Zero-energy frame fed to an ACF-based statistic (ratio undefined)."""


class CalibrationError(OccuscanError):
    """Calibration input set is empty or too small."""


class PlanError(OccuscanError):
    """Generated channel plan violates a band's count or stop-frequency."""


class RoutingError(OccuscanError):
    """Frame center frequency does not match the channel being scanned."""


class ScenarioError(OccuscanError):
    """Scenario file failed to parse or validate; message names the field/line."""


class CsvParseError(OccuscanError):
    """A CSV input row could not be parsed; message carries the line number."""


class UsageError(OccuscanError):
    """A command-line option is out of range; the message names the option."""
