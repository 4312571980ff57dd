"""The detector table: each detector's statistic column, threshold field and direction.

It imports no numpy, so ``report`` and the record log's reader name the detectors
without loading the statistics kernel (``detectors``), whose columns it indexes.
"""

from __future__ import annotations

from typing import NamedTuple


class Detector(NamedTuple):
    """One detector: its statistic column, threshold field and test direction."""

    name: str
    column: int  # column of block_statistics output
    threshold_field: str  # DetectorConfig attribute
    direction: str  # ">": present above the threshold, "<": present below

    def threshold(self, config) -> float:  # config: a DetectorConfig
        return getattr(config, self.threshold_field)

    def decide(self, statistic, threshold):
        """Vectorized decision; a statistic equal to the threshold decides absent."""
        return statistic < threshold if self.direction == "<" else statistic > threshold

    def tune(self, h0, target_pfa: float) -> float:
        """Threshold giving target_pfa on the noise-only (H0) statistics h0: their
        (1 - target_pfa) quantile for a ">" row, their target_pfa quantile for a "<" row."""
        if not 0.0 < target_pfa < 1.0:
            raise ValueError("target_pfa must lie in (0, 1)")
        from .detectors import quantile  # numpy, which only a tuner needs here
        return quantile(h0, target_pfa if self.direction == "<" else 1.0 - target_pfa)


# canonical order: energy, lag-1 ACF, correlation distance
DETECTOR_TABLE = (
    Detector("ed", 0, "lambda_ed", ">"),
    Detector("acf1", 1, "lambda_acf", ">"),
    Detector("cdist", 2, "gamma", "<"),
)
DETECTORS = tuple(d.name for d in DETECTOR_TABLE)
DETECTOR_BY_NAME = {d.name: d for d in DETECTOR_TABLE}
