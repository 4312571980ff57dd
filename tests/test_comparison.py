"""The paper's comparison of the three detectors at matched pfa, where their pd differ.

Each detector's threshold is tuned to pfa 0.05 on its own H0 statistics, and
all three score the same paired trials (``shared_trial_statistics``). The
reference is one clean frame of the scored signal. At -14 dB a tone is found
far more often by correlation distance than by energy or lag-1 ACF, which is
the paper's claim; at -10 dB a 4-samples-a-symbol BPSK, whose ACF magnitudes
fall off with lag, is found most often by energy.

The expected pd and their spreads were measured on 30 other noise seeds
(0-29, BPSK symbol seeds 1000-1029) of 4,000 trials each. Every bound is at
least 4 standard deviations of that spread from its measured value.

The same comparison runs through the commands: ``calibrate`` prints the three
thresholds tuned to pfa 0.05, they are pasted into a -14 dB tone scenario's
``detector`` block, and ``simulate``'s decisions are scored against
``truth.csv``.
"""

import contextlib
import io

import numpy as np
import pytest

from occuscan import DetectorConfig, NoiseSpec, SignalSpec, acf_vector, gen_signal_frame
from occuscan.cli import main
from occuscan.detectors import DETECTOR_TABLE
from occuscan.evaluate import shared_trial_statistics, tune_threshold_for_pfa
from conftest import csv_rows, wilson

N, LAGS, TRIALS, PFA = 1024, 8, 4000, 0.05
TONE = SignalSpec(kind="tone", normalized_freq=0.13)
BPSK = SignalSpec(kind="bpsk", symbol_rate_divisor=4, seed=101)


def _pd_at_matched_pfa(signal: SignalSpec, snr_db: float) -> dict:
    """Each detector's pd at its own pfa-0.05 threshold, over TRIALS paired trials."""
    reference = acf_vector(gen_signal_frame(N, signal, 0), LAGS)
    config = DetectorConfig(1.0, 0.5, 0.5, LAGS, reference)
    stats = shared_trial_statistics(config, signal, NoiseSpec(1.0, seed=100), [snr_db], N,
                                    range(TRIALS))
    pd = {}
    for d in DETECTOR_TABLE:
        h0, h1 = stats[0, :, d.column], stats[1, :, d.column]
        threshold = tune_threshold_for_pfa(d.name, h0, PFA)
        assert d.decide(h0, threshold).mean() == PFA
        pd[d.name] = d.decide(h1, threshold).mean()
    return pd


# lead: the leader's least lead over the other two, from its measured lead (and
# sd), tone 0.440 (0.015) and BPSK 0.067 (0.011); measured: each detector's pd
# mean and sd, in DETECTOR_TABLE order (ed, acf1, cdist)
@pytest.mark.parametrize("signal, snr_db, leader, lead, measured", [
    (TONE, -14.0, "cdist", 0.38, ((0.349, 0.0106), (0.318, 0.0105), (0.789, 0.0093))),
    (BPSK, -10.0, "ed", 0.02, ((0.921, 0.0057), (0.784, 0.0083), (0.855, 0.0092))),
], ids=["tone_-14dB", "bpsk_-10dB"])
def test_leader_at_matched_pfa(signal, snr_db, leader, lead, measured):
    pd = _pd_at_matched_pfa(signal, snr_db)
    others = max(v for k, v in pd.items() if k != leader)
    assert pd[leader] - others >= lead, pd
    for d, (mean, sd) in zip(DETECTOR_TABLE, measured):
        assert abs(pd[d.name] - mean) <= 5 * sd, (d.name, pd)


# 16 channels x 250 frames of a -14 dB tone, on every other frame; the threshold
# frames are as many as the example scenario's
MATCHED_PFA_SCENARIO = """\
name: matched-pfa
master_seed: 7
sample_rate_hz: 1.0e6
frame_len: 1024
frame_interval_s: 1.0
total_s: 250.0
bin_len_s: 50.0

plan:
  - name: LOW
    start_mhz: 100.0
    stop_mhz: 115.0
    spacing_mhz: [1]
    expected_channels: 16

defaults:
  snr_db: -14.0
  signal:
    kind: tone
    normalized_freq: 0.13
  noise:
    total_power: 1.0
  schedule:
    period_s: 2.0
    on_intervals: [[0.0, 1.0]]

detector:
  reference: reference.txt
{thresholds}
  acf_lags: 8

calibration:
  snr_db: 20.0
  reference_frames: 100
  threshold_frames: 10000
  target_pfa: 0.05
"""


def test_calibrated_thresholds_match_pfa_and_cdist_leads_through_the_cli(tmp_path):
    """Each detector's pfa on the truth-off frames lies within z = 5 of the target, and
    cdist's frame error beats ed's and acf1's by at least 0.18.

    On master seeds 100-129 the frame errors read ed 0.348 (sd 0.0053), acf1 0.366
    (0.0064) and cdist 0.130 (0.0051), and cdist's least lead 0.218 (0.0069): the
    margin is 5 of its standard deviations below its mean.
    """
    scn = tmp_path / "scn.yaml"
    scn.write_text(MATCHED_PFA_SCENARIO.format(
        thresholds="  lambda_ed: 1.0\n  lambda_acf: 0.5\n  gamma: 0.5"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["calibrate", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
    printed = out.getvalue().splitlines()[1:]
    assert [line.split("=")[0] for line in printed] == [d.threshold_field
                                                        for d in DETECTOR_TABLE]
    scn.write_text(MATCHED_PFA_SCENARIO.format(
        thresholds="\n".join(f"  {line.replace('=', ': ')}" for line in printed)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 0

    records = csv_rows(tmp_path / "o" / "records.csv")
    on = np.array([r[4] == "1" for r in csv_rows(tmp_path / "o" / "truth.csv")])
    error = {}
    for d in DETECTOR_TABLE:
        present = np.array([r[7] == "1" for r in records[d.column::len(DETECTOR_TABLE)]])
        lo, hi = wilson(int(present[~on].sum()), int((~on).sum()), 5.0)
        assert lo <= 0.05 <= hi, (d.name, present[~on].mean())
        error[d.name] = float(np.mean(present != on))
    assert error["cdist"] + 0.18 <= min(error["ed"], error["acf1"]), error
