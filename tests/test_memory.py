"""Peak memory of the statistics kernel, eval's trial blocks and each command's stream.

numpy reports its data buffers to tracemalloc, so a traced peak counts every
array a call allocates, and Python objects too. Kernel and recording peaks are
in blocks: one block is BLOCK_FRAMES frames of complex128 samples. A stream
(analyze's recording, simulate's windows) holds one block at a time, and
report's record log one row; each stream test's limit lies between the peak of
a stream that still held what it had read or made before and that of one that
does not.
"""

import tracemalloc

import numpy as np
import pytest

from occuscan import AcfVector, Channel, DetectorConfig, NoiseSpec, SignalSpec, block_statistics
from occuscan.cli import main
from occuscan.detectors import save_reference
from occuscan.evaluate import shared_trial_statistics
from occuscan.iq import BLOCK_FRAMES
from occuscan.report import aggregate_table
from occuscan.scan import channel_fields, read_records, write_records

N = 4096
BLOCK_BYTES = BLOCK_FRAMES * N * 16


def _peak_bytes(call) -> int:
    """Peak traced bytes allocated while ``call`` runs, above those held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def _peak_blocks(call) -> float:
    return _peak_bytes(call) / BLOCK_BYTES


def _reference(lags=8) -> AcfVector:
    return AcfVector(np.linspace(1.0, 0.5, lags))


def test_kernel_makes_no_copy_of_the_block():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((BLOCK_FRAMES, N)) + 1j * rng.standard_normal((BLOCK_FRAMES, N))
    assert _peak_blocks(lambda: block_statistics(block, _reference())) < 0.1


@pytest.mark.parametrize("signal, limit", [
    # noise and one mix buffer; the tone is one broadcast row
    (SignalSpec(kind="tone", normalized_freq=0.13), 2.2),
    # noise, signal and one mix buffer
    (SignalSpec(kind="bpsk", symbol_rate_divisor=4, seed=2), 3.1),
], ids=["tone", "bpsk"])
def test_eval_holds_one_trial_block_at_a_time(signal, limit):
    config = DetectorConfig(1.05, 0.25, 0.6, 8, _reference())
    trials = range(3 * BLOCK_FRAMES)

    def run():
        shared_trial_statistics(config, signal, NoiseSpec(1.0, seed=4), [-10.0, 0.0, 10.0],
                                N, trials)

    assert _peak_blocks(run) <= limit


SCENARIO = """\
frame_len: {frame_len}
frame_interval_s: 1.0
total_s: {frames}
plan:
  - name: WIDE
    start_mhz: 1000.0
    stop_mhz: {stop_mhz}
    spacing_mhz: [0.25]
    expected_channels: {channels}
defaults:
  snr_db: 10.0
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
  lambda_ed: 1.05
  lambda_acf: 0.25
  gamma: 0.6
  acf_lags: 8
"""


def _scenario(path, frame_len, frames, channels):
    save_reference(_reference(), path.parent / "reference.txt")
    path.write_text(SCENARIO.format(frame_len=frame_len, frames=frames, channels=channels,
                                    stop_mhz=1000.0 + 0.25 * (channels - 1)))
    return str(path)


def _main_peak(argv) -> int:
    """cli.main's traced peak, once a first run has loaded every module it imports."""
    assert main(argv) == 0
    return _peak_bytes(lambda: main(argv))


def test_analyze_holds_one_block_at_a_time(tmp_path, capsys):
    blocks = 10
    rng = np.random.default_rng(5)
    with open(tmp_path / "cap.iq", "wb") as fh:
        for _ in range(blocks):
            rng.standard_normal(2 * BLOCK_FRAMES * N).astype("<f4").tofile(fh)
    (tmp_path / "cap.iq.meta").write_text(
        "sample_rate_hz=1e6\ncenter_freq_hz=100e6\nstart_time_unix=0.0\n"
        f"num_samples={blocks * BLOCK_FRAMES * N}\n")
    argv = ["analyze", "--scenario", _scenario(tmp_path / "a.yaml", N, 1, 1),
            "--out", str(tmp_path / "o"), "--iq", str(tmp_path / "cap.iq"),
            "--meta", str(tmp_path / "cap.iq.meta"), "--center-mhz", "100"]
    # a block and, while it is converted, its float32 read: 1.53 blocks measured. Holding
    # the previous block and its read while the next is read and converted measured 2.53.
    assert _main_peak(argv) / BLOCK_BYTES < 2.0


def test_report_fold_holds_no_rows(tmp_path):
    channels, frames = 41, 180  # 22,140 records
    times = np.arange(frames, dtype=float)
    stats = np.random.default_rng(6).random((frames, channels, 3))
    config = DetectorConfig(1.05, 0.25, 0.6, 8, _reference())
    write_records(channel_fields([Channel("B", i, 100.0 + i) for i in range(channels)]),
                  [(times, stats)], config, tmp_path / "r.csv")

    def fold():
        plan: list = []
        aggregate_table(read_records(tmp_path / "r.csv", plan), plan, 60.0)

    fold()
    # the 369 cells and the channels, each row dropped once counted: 0.09 MB measured.
    # Reading 1,024 rows at a time into columns measured 0.79 MB.
    assert _peak_bytes(fold) < 0.3e6


def test_simulate_holds_one_window_at_a_time(tmp_path, capsys):
    channels = 2000
    # three windows, the last of one frame: the second is made while the first is written
    argv = ["simulate", "--scenario",
            _scenario(tmp_path / "s.yaml", 16, 2 * BLOCK_FRAMES + 1, channels),
            "--out", str(tmp_path / "o"), "--workers", "1"]
    per_window_frame = _main_peak(argv) / (channels * BLOCK_FRAMES)
    # the plan and one window: its runs' parts while they are stitched, or its columns,
    # decisions and text while they are written; 60-61 B a window frame measured. Holding
    # the previous window while the next is made and stitched measured 85.6 B. (While a
    # window also held per-frame time and channel columns: 90-92 B and 135 B.)
    assert per_window_frame < 75
