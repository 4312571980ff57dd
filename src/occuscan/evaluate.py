"""Monte Carlo detector quality measurement: Pd, Pfa, ROC, recovery error.

Trials are paired: trial i's noise frame serves the signal-absent and every
signal-present hypothesis, and one generation pass scores every detector at
every SNR, so all thresholds, SNRs and detectors see the same randomness (ROC
curves are monotone by construction; detectors compare at matched pfa). Trial
i draws from (spec seed, i) only, so results depend on neither order nor chunks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .detectors import (
    BLOCK_FRAMES,
    DETECTOR_BY_NAME,
    DETECTORS,
    DetectorConfig,
    block_statistics,
    decides_present,
)
from .scan import _fmt, scan_blocks
from .synth import (
    NoiseSpec,
    OccupancySchedule,
    SignalSpec,
    noise_rows,
    signal_rows,
    snr_scale,
    timeline_blocks,
)

EVAL_CSV_HEADER = "detector,scenario,snr_db,threshold,trials,pd,pfa"


@dataclass(frozen=True)
class OperatingPoint:
    """Measured (pd, pfa) for one detector at one threshold and SNR."""

    detector: str
    snr_db: float
    threshold: float
    pd: float
    pfa: float
    trials: int

    def __post_init__(self):
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0.0 <= self.pd <= 1.0 and 0.0 <= self.pfa <= 1.0):
            raise ValueError("pd and pfa must lie in [0, 1]")


def shared_trial_statistics(
    config: DetectorConfig,
    signal_spec: SignalSpec,
    noise_spec: NoiseSpec,
    snr_dbs,
    n: int,
    trials: range,
) -> np.ndarray:
    """Statistics of the trials in ``trials`` under H0 and under H1 at each SNR.

    Returns a (1 + len(snr_dbs), len(trials), 3) array: [0] is H0, [1 + k] is
    H1 at snr_dbs[k] (noise frame i plus signal frame i at that SNR; H0 where
    the scale is 0), columns in DETECTOR_TABLE order. Frames are made once per
    trial, BLOCK_FRAMES trials at a time, and only one block is held at once.
    A frame whose energy is not finite raises SampleDataError naming its trial
    index as the frame.
    """
    powers = (signal_spec.nominal_power, noise_spec.total_power)
    alphas = [snr_scale(*powers, s) if signal_spec.kind != "none" else 0.0 for s in snr_dbs]
    out = np.empty((1 + len(alphas), len(trials), 3))
    for start in range(0, len(trials), BLOCK_FRAMES):
        idx = trials[start:start + BLOCK_FRAMES]
        rows = slice(start, start + len(idx))
        noise = noise_rows(n, noise_spec, idx)
        out[:, rows] = block_statistics(noise, config.reference, idx[0])
        if any(alphas):
            sig = signal_rows(n, signal_spec, idx)
            for k, alpha in enumerate(alphas, 1):
                if alpha != 0.0:
                    # an overflowing mix leaves a non-finite energy, which the kernel reports
                    with np.errstate(over="ignore", invalid="ignore"):
                        mixed = alpha * sig + noise
                    out[k, rows] = block_statistics(mixed, config.reference, idx[0])
    return out


def trial_statistics(
    detector: str,
    config: DetectorConfig,
    signal_spec: SignalSpec,
    noise_spec: NoiseSpec,
    snr_db: float,
    n: int,
    trials: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One detector's statistic arrays (signal-absent, signal-present) over paired trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stats = shared_trial_statistics(config, signal_spec, noise_spec, [snr_db], n, range(trials))
    column = DETECTOR_BY_NAME[detector].column
    return stats[0, :, column], stats[1, :, column]


def measure_pd_pfa(
    detector: str,
    config: DetectorConfig,
    signal_spec: SignalSpec,
    noise_spec: NoiseSpec,
    snr_db: float,
    n: int,
    trials: int,
) -> OperatingPoint:
    """Monte Carlo (pd, pfa) at the detector's configured threshold."""
    h0, h1 = trial_statistics(detector, config, signal_spec, noise_spec, snr_db, n, trials)
    threshold = DETECTOR_BY_NAME[detector].threshold(config)
    return operating_points(detector, snr_db, h0, h1, [threshold])[0]


def roc_curve(
    detector: str,
    config: DetectorConfig,
    signal_spec: SignalSpec,
    noise_spec: NoiseSpec,
    snr_db: float,
    n: int,
    trials: int,
    thresholds,
) -> list[OperatingPoint]:
    """Operating points over a sorted threshold list on one shared trial set.

    Sharing trials makes pd/pfa exactly non-increasing in threshold for
    ed/acf1 and non-decreasing for cdist (present means distance below the
    threshold there).
    """
    thresholds = list(thresholds)
    if len(thresholds) < 2:
        raise ValueError("roc_curve needs at least 2 thresholds")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    h0, h1 = trial_statistics(detector, config, signal_spec, noise_spec, snr_db, n, trials)
    return operating_points(detector, snr_db, h0, h1, thresholds)


def operating_points(detector: str, snr_db: float, h0, h1, thresholds) -> list[OperatingPoint]:
    """Measured (pd, pfa) at each threshold from one detector's H0 and H1 statistics."""
    return [
        OperatingPoint(
            detector=detector,
            snr_db=snr_db,
            threshold=thr,
            pd=float(np.mean(decides_present(detector, h1, thr))),
            pfa=float(np.mean(decides_present(detector, h0, thr))),
            trials=h0.size,
        )
        for thr in thresholds
    ]


def tune_threshold_for_pfa(detector: str, h0_statistics, target_pfa: float) -> float:
    """Threshold achieving the target false-alarm rate on the given H0 sample.

    For ed/acf1 (present above threshold) this is the empirical
    (1 - target_pfa) quantile; for cdist (present below) the target_pfa
    quantile.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie in (0, 1)")
    h0 = np.asarray(h0_statistics, dtype=np.float64)
    if h0.size < 1:
        raise ValueError("need at least one H0 statistic")
    below = DETECTOR_BY_NAME[detector].direction == "<"
    return float(np.quantile(h0, target_pfa if below else 1.0 - target_pfa))


@dataclass(frozen=True)
class RecoveryResult:
    true_duty: float
    measured_occupancy: float
    abs_error: float


def occupancy_recovery(
    schedule: OccupancySchedule,
    detector: str,
    config: DetectorConfig,
    signal_spec: SignalSpec,
    noise_spec: NoiseSpec,
    snr_db: float,
    frame_len: int,
    frame_interval_s: float,
    total_s: float,
) -> RecoveryResult:
    """How well detected occupancy recovers a known duty cycle.

    Runs the detector over a synthetic timeline and compares the fraction of
    present decisions (occupancy over all scans) to the schedule's duty
    cycle.
    """
    row = DETECTOR_BY_NAME[detector]
    blocks = timeline_blocks(
        schedule, signal_spec, noise_spec, snr_db, frame_len, frame_interval_s, total_s
    )
    _, stats, _ = scan_blocks(blocks, config)
    if not len(stats):
        raise ValueError("scenario produced no scans")
    decisions = row.decide(stats[:, row.column], row.threshold(config))
    measured = int(np.count_nonzero(decisions)) / len(decisions)
    true_duty = schedule.duty_cycle
    return RecoveryResult(true_duty, measured, abs(measured - true_duty))


def write_eval_csv(rows, path) -> None:
    """rows: iterable of (scenario_label, OperatingPoint)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVAL_CSV_HEADER.split(","))
        for label, op in rows:
            writer.writerow(
                [
                    op.detector,
                    label,
                    _fmt(op.snr_db),
                    _fmt(op.threshold),
                    op.trials,
                    _fmt(op.pd),
                    _fmt(op.pfa),
                ]
            )
