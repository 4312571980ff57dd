"""The signal path through ``simulate`` and ``report`` against closed-form theory.

For a deterministic signal of per-sample power S in white circularly symmetric
complex Gaussian noise of power sigma^2, 2N * ed / sigma^2 is noncentral
chi-square with 2N degrees of freedom and noncentrality 2N * S / sigma^2
(Urkowitz, 1967), so ed's pd at threshold lambda is
ncx2.sf(2N lambda / sigma^2, 2N, 2N snr), and its pfa is the H0 case,
gammaincc(N, N lambda / sigma^2). A channel of duty cycle d then reads an
expected occupancy of d pd + (1 - d) pfa.

One low-SNR tone scenario, with no channel overrides and duty 0.5, goes through
``cli.main``: ``simulate`` then ``report``. ed's pd on the truth-on frames, its
pfa on the truth-off frames and the mean of ``occupancy.csv``'s ed cells are
each checked inside a z = 5 Wilson interval. At -10 dB and N = 256 pd is near
one half, so a wrong SNR scale, a wrong noise power or a tone added to the off
frames moves one of the three far outside its interval. Every bin holds as
many frames of each channel, so the mean of the cells is the rate over frames;
the frames' mixture of two rates has less spread than one binomial of their
mean, so that interval is conservative.
"""

import contextlib
import io
import math

import numpy as np
from scipy.special import gammaincc
from scipy.stats import ncx2

from occuscan.cli import main
from conftest import csv_rows, wilson

N, SNR_DB, LAMBDA_ED, SIGMA2, Z = 256, -10.0, 2.2, 2.0, 5.0

SCENARIO = f"""\
name: signal-path
master_seed: 314
sample_rate_hz: 1.0e6
frame_len: {N}
frame_interval_s: 1.0
total_s: 200.0
bin_len_s: 20.0

plan:
  - name: PATH
    start_mhz: 100.0
    stop_mhz: 163.0
    spacing_mhz: [1]
    expected_channels: 64

defaults:
  snr_db: {SNR_DB}
  signal:
    kind: tone
    normalized_freq: 0.13
  noise:
    total_power: {SIGMA2}
  schedule:
    period_s: 2.0
    on_intervals: [[0.0, 1.0]]

detector:
  reference: reference.txt
  lambda_ed: {LAMBDA_ED}
  lambda_acf: 0.25
  gamma: 0.6
  acf_lags: 8

calibration:
  reference_frames: 10
  threshold_frames: 100
"""


def test_ed_pd_pfa_and_occupancy_match_theory(tmp_path):
    scn = tmp_path / "scn.yaml"
    scn.write_text(SCENARIO)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calibrate", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
        assert main(["report", "--records", str(out / "records.csv"), "--out", str(out),
                     "--bins", "20"]) == 0

    ed = [r for r in csv_rows(out / "records.csv") if r[4] == "ed"]
    truth = csv_rows(out / "truth.csv")
    assert [r[:4] for r in ed] == [r[:4] for r in truth]  # one ed record a frame, same order
    present = np.array([r[7] == "1" for r in ed])
    on = np.array([r[4] == "1" for r in truth])
    assert on.mean() == 0.5

    x = N * LAMBDA_ED / SIGMA2
    pd = ncx2.sf(2 * x, 2 * N, 2 * N * 10 ** (SNR_DB / 10))
    pfa = gammaincc(N, x)
    assert 0.4 < pd < 0.6 and 0.05 < pfa < 0.07  # lambda = 1.1 sigma^2: neither saturates
    for name, decisions, theory in (("pd", present[on], pd), ("pfa", present[~on], pfa)):
        lo, hi = wilson(int(decisions.sum()), decisions.size, Z)
        assert lo <= theory <= hi, (name, decisions.mean(), theory)

    cells = [r for r in csv_rows(out / "occupancy.csv") if r[3] == "ed"]
    assert {int(r[7]) for r in cells} == {20}  # every cell holds 20 frames
    occupancy = math.fsum(float(r[8]) for r in cells) / len(cells)
    lo, hi = wilson(round(occupancy * present.size), present.size, Z)
    assert lo <= 0.5 * pd + 0.5 * pfa <= hi, (occupancy, 0.5 * pd + 0.5 * pfa)
