"""Monte Carlo detector quality measurement: Pd, Pfa and ROC points.

Trials are paired: trial i's noise frame serves the signal-absent and every
signal-present hypothesis, and one generation pass scores every detector at
every SNR, so all thresholds, SNRs and detectors see the same randomness (ROC
curves are monotone by construction; detectors compare at matched pfa). Trial
i draws from (spec seed, i) only, so results depend on neither order nor chunks.
Results stay arrays: ``operating_points`` gives pd and pfa over a threshold
list, and ``write_eval_csv`` renders plain row tuples.
"""

from __future__ import annotations

import numpy as np

from .detectors import (DETECTOR_BY_NAME, DetectorConfig, block_statistics, decides_present,
                        quantile)
from .iq import BLOCK_FRAMES
from .scan import _FLOAT
from .synth import NoiseSpec, SignalSpec, noise_rows, signal_rows, snr_scale

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


def operating_points(detector: str, h0, h1, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """One detector's measured (pd, pfa) arrays over thresholds, from its H0 and H1 statistics."""
    thr = np.asarray(thresholds, dtype=np.float64)[:, None]
    return (decides_present(detector, h1, thr).mean(axis=1),
            decides_present(detector, h0, thr).mean(axis=1))


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
    return quantile(h0, target_pfa if below else 1.0 - target_pfa)


def write_eval_csv(rows, path) -> None:
    """rows: (detector, scenario, snr_db, threshold, trials, pd, pfa) tuples, in header order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(EVAL_CSV_HEADER + "\n")
        fh.write("".join(
            f"{d},{label},{snr:{_FLOAT}},{thr:{_FLOAT}},{n},{pd:{_FLOAT}},{pfa:{_FLOAT}}\n"
            for d, label, snr, thr, n, pd, pfa in rows
        ))
