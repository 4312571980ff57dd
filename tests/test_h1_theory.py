"""acf1 under H1 (a tone in noise) against its delta-method law.

Take N samples y[n] = s[n] + w[n] of a tone s of power a^2 and phase step w0 in
white circularly symmetric complex Gaussian noise w of unit power. Turned by
the tone's phase step, ACF(1) is B = (N - 1) a^2 plus a fluctuation:

- the cross terms of adjacent lag products share one noise sample, so their
  real parts add and their imaginary parts telescope: Re B has variance
  a^2 (2N - 3) + (N - 1)/2 and Im B has a^2 + (N - 1)/2, an improper
  fluctuation (pseudo-variance 2 (N - 2) a^2);
- ACF(0) = N (1 + a^2) plus a fluctuation of variance N (2a^2 + 1), whose
  cross terms with the tone are those of Re B: their covariance is
  2 a^2 (N - 1).

acf1 = |B| / ACF(0), taken to first order about mu = (N - 1) a^2 and
A = N (1 + a^2) (to second order for its mean), is near Gaussian once mu is
several standard deviations from 0. Its pd at thresholds around its mean is
checked against the Gaussian tail inside a z = 5 Wilson interval.

At N = 1,024 (-5 and -10 dB) a fault that moves |ACF(1)| by O(1/N), a circular
lag sum or lag 2 in place of lag 1, stays inside the intervals: a tone's
|ACF(l)| is (N - l) a^2 at every lag. The N = 64 point at 3 dB is short
enough for either fault to move pd far outside them. The tone's frequency,
1/8 cycle a sample, puts a whole number of cycles in each frame, so the
circular sum's wrapped term adds in phase.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from occuscan import AcfVector, NoiseSpec, SignalSpec
from occuscan.detectors import DETECTOR_BY_NAME, block_statistics
from occuscan.synth import trial_rows
from conftest import wilson

TRIALS, SEED, Z = 4_000, 11, 5.0
ACF1 = DETECTOR_BY_NAME["acf1"]
CASES = {1024: [-5.0, -10.0], 64: [3.0]}  # frame length: its SNRs in dB


def acf1_law(n: int, snr_db: float) -> tuple[float, float]:
    """The delta method's mean and standard deviation of acf1 for a tone at snr_db in unit
    noise over n samples (see the module docstring)."""
    a2 = 10.0 ** (snr_db / 10.0)
    mu, acf0 = (n - 1) * a2, n * (1 + a2)
    var_re, var_im = a2 * (2 * n - 3) + (n - 1) / 2, a2 + (n - 1) / 2
    var0, cov = n * (2 * a2 + 1), 2 * a2 * (n - 1)
    r = mu / acf0
    mean = (mu + var_im / (2 * mu)) / acf0 - cov / acf0**2 + mu * var0 / acf0**3
    return mean, math.sqrt(var_re - 2 * r * cov + r * r * var0) / acf0


@pytest.fixture(scope="module")
def acf1_h1():
    """(n, snr_db) -> TRIALS acf1 statistics of paired H1 trials, from fixed seeds."""
    signal = SignalSpec(kind="tone", normalized_freq=0.125, seed=SEED)
    noise = NoiseSpec(1.0, seed=SEED)
    reference = AcfVector(np.array([1.0, 0.5]))  # acf1 reads lag 1 only
    stats = {}
    for n, snrs in CASES.items():
        for _, h, rows in trial_rows(n, signal, noise, snrs, range(TRIALS)):
            if h:
                stats.setdefault((n, snrs[h - 1]), []).append(
                    block_statistics(rows, reference)[:, ACF1.column])
    return {key: np.concatenate(parts) for key, parts in stats.items()}


@pytest.mark.parametrize("n, snr_db", [(n, snr) for n, snrs in CASES.items() for snr in snrs])
@pytest.mark.parametrize("k", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_acf1_pd_matches_delta_method(acf1_h1, n, snr_db, k):
    mean, sd = acf1_law(n, snr_db)
    assert mean > 3 * sd  # far enough from 0 for a Gaussian law
    stats = acf1_h1[n, snr_db]
    assert stats.size == TRIALS
    hits = int(np.count_nonzero(ACF1.decide(stats, mean + k * sd)))
    lo, hi = wilson(hits, TRIALS, Z)
    assert lo <= norm.sf(k) <= hi, (hits / TRIALS, norm.sf(k))
