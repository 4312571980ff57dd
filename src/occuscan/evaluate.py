"""Monte Carlo detector quality measurement: Pd, Pfa and ROC points.

Trials are paired: trial i's noise frame serves the signal-absent and every
signal-present hypothesis, and one generation pass scores every detector at
every SNR, so all thresholds, SNRs and detectors see the same randomness (ROC
curves are monotone by construction; detectors compare at matched pfa). Trial
i is ``synth.trial_rows``' draw from (spec seed, i), whatever the chunks.
Results stay arrays: ``operating_points`` gives pd and pfa over a threshold
list, and ``write_eval_csv`` renders plain row tuples. Thresholds are tuned
to a target pfa by the detector table's ``Detector.tune``, which
``tune_threshold_for_pfa`` looks up by name.
"""

from __future__ import annotations

import numpy as np

from .detectors import DETECTOR_BY_NAME, DetectorConfig, block_statistics, decides_present
from .scan import _FLOAT
from .synth import NoiseSpec, SignalSpec, trial_rows

EVAL_CSV_HEADER = "detector,scenario,snr_db,threshold,trials,pd,pfa"


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
    trial, BLOCK_FRAMES trials at a time, by ``synth.trial_rows``: the blocks
    share one noise buffer and one mix buffer, a block's H0 rows stay as drawn
    until the next block and each H1's rows until the next H1, and a block's
    signal frames (one row for a tone) are freed before the next block's are drawn.
    A frame whose energy is not finite raises SampleDataError naming its trial
    index as the frame.
    """
    out = np.empty((1 + len(snr_dbs), len(trials), 3))
    for i, h, rows in trial_rows(n, signal_spec, noise_spec, snr_dbs, trials):
        out[h, i:i + len(rows)] = block_statistics(rows, config.reference, trials[i])
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


def operating_points(detector: str, h0, h1, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """One detector's measured (pd, pfa) arrays over thresholds, from its H0 and H1 statistics."""
    thr = np.asarray(thresholds, dtype=np.float64)[:, None]
    return (decides_present(detector, h1, thr).mean(axis=1),
            decides_present(detector, h0, thr).mean(axis=1))


def tune_threshold_for_pfa(detector: str, h0_statistics, target_pfa: float) -> float:
    """The named detector's ``Detector.tune``: its threshold for target_pfa on an H0 sample."""
    return DETECTOR_BY_NAME[detector].tune(h0_statistics, target_pfa)


def write_eval_csv(rows, path) -> None:
    """rows: (detector, scenario, snr_db, threshold, trials, pd, pfa) tuples, in header order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(EVAL_CSV_HEADER + "\n")
        fh.write("".join(
            f"{d},{label},{snr:{_FLOAT}},{thr:{_FLOAT}},{n},{pd:{_FLOAT}},{pfa:{_FLOAT}}\n"
            for d, label, snr, thr, n, pd, pfa in rows
        ))
