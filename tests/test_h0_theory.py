"""Noise-only (H0) statistics against closed-form theory.

For N samples of white circularly symmetric complex Gaussian noise of power
sigma^2, N * ed / sigma^2 is Gamma(N, 1), so P(ed > lambda) is
gammaincc(N, N * lambda / sigma^2). ACF(1) sums N - 1 products of variance
sigma^4 and ACF(0) is close to N * sigma^2, so |ACF(1)| is near Rayleigh and
P(acf1 > lambda) is close to exp(-N^2 lambda^2 / (N - 1)). An approximation
is only near its law, so each measured pfa is checked inside a z = 5 Wilson
interval, as the benchmark's ed oracle is.

The noise-power test is energy detection's "SNR wall" (Tandra and Sahai,
2008), the weakness the paper's correlation-based detectors answer: ed's
threshold is set for pfa 0.05 at unit noise power, and the same draws at
+0.5 and +1 dB push its pfa up the Gamma tail, while acf1 and cdist, being
invariant to the noise's scale, keep their statistics and so their pfa.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, gammainccinv

from occuscan import NoiseSpec, SignalSpec, acf_vector, gen_signal_frame
from occuscan.detectors import DETECTOR_BY_NAME, block_statistics
from occuscan.synth import noise_rows
from conftest import wilson

N, LAGS, TRIALS, BLOCK, SEED, Z = 1024, 8, 10_000, 1_000, 7, 5.0
ED, ACF1 = DETECTOR_BY_NAME["ed"], DETECTOR_BY_NAME["acf1"]
REFERENCE = acf_vector(gen_signal_frame(N, SignalSpec(kind="tone", normalized_freq=0.13), 0),
                       LAGS)


def _h0_statistics(power_db: float) -> np.ndarray:
    """(TRIALS x 3) statistics of noise frames at power_db over unit power, from fixed seeds."""
    spec = NoiseSpec(10.0 ** (power_db / 10.0), seed=SEED)
    return np.concatenate([block_statistics(noise_rows(N, spec, range(k, k + BLOCK)), REFERENCE)
                           for k in range(0, TRIALS, BLOCK)])


@pytest.fixture(scope="module")
def unit_power():
    return _h0_statistics(0.0)


@pytest.mark.parametrize("lam", [0.01, 0.03, 0.05, 0.1])
def test_acf1_tail_matches_closed_form(unit_power, lam):
    k = int(np.count_nonzero(unit_power[:, ACF1.column] > lam))
    lo, hi = wilson(k, TRIALS, Z)
    expected = math.exp(-N * N * lam * lam / (N - 1))
    assert lo <= expected <= hi, (k / TRIALS, expected)


# pfa: gammaincc(N, N * lambda_ed / sigma^2), to four places
@pytest.mark.parametrize("power_db, pfa", [(0.0, 0.05), (0.5, 0.9789), (1.0, 1.0)])
def test_noise_power_moves_only_energy_pfa(unit_power, power_db, pfa):
    lambda_ed = gammainccinv(N, 0.05) / N  # pfa 0.05 at unit noise power
    assert lambda_ed == pytest.approx(1.05195, abs=1e-5)
    expected = gammaincc(N, N * lambda_ed / 10.0 ** (power_db / 10.0))
    assert expected == pytest.approx(pfa, abs=5e-5)  # the wall: +0.5 dB takes 0.05 to 0.98
    stats = _h0_statistics(power_db)
    lo, hi = wilson(int(np.count_nonzero(ED.decide(stats[:, ED.column], lambda_ed))), TRIALS, Z)
    assert lo <= expected <= hi, (lo, hi, expected)
    # acf1 and cdist see the same draws at another scale: the same statistics
    np.testing.assert_allclose(stats[:, 1:], unit_power[:, 1:], rtol=1e-12, atol=0)
