"""Peak memory of the statistics kernel and of eval's trial blocks, by tracemalloc.

numpy reports its data buffers to tracemalloc, so a traced peak counts every
array a call allocates. Peaks are in blocks: one block is BLOCK_FRAMES frames
of complex128 samples.
"""

import tracemalloc

import numpy as np
import pytest

from occuscan import AcfVector, DetectorConfig, NoiseSpec, SignalSpec, block_statistics
from occuscan.evaluate import shared_trial_statistics
from occuscan.iq import BLOCK_FRAMES

N = 4096
BLOCK_BYTES = BLOCK_FRAMES * N * 16


def _peak_blocks(call) -> float:
    """Peak traced bytes allocated while ``call`` runs, above those held before it, in blocks."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / BLOCK_BYTES


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
