"""Seeded synthetic baseband generation with ground-truth presence labels.

Everything here is a pure function of its arguments: each frame's randomness
comes from ``SeedSequence((seed, stream, frame_index))``, so regenerating a
frame at any index, in any process, gives bit-identical samples. A block's
generators are seeded in one pass (``_frame_rngs``): numpy's SeedSequence
mixing runs once over the whole block, then one reused PCG64 is set to each
frame's state. The mixing is uint32 array arithmetic (``_seed_pool``), so
``seed_u64``, which derives a scenario's seeds, needs no ``numpy.random``;
this is the only module that loads it, and only where it draws.

Frames are plain complex128 rows: ``noise_rows`` and ``signal_rows`` make
(frames x N) blocks, and ``mixed_blocks`` yields noise rows with ``alpha *
signal`` added to the frames labeled present (calibration: every frame), at
most BLOCK_FRAMES at a time. ``channel_window`` makes a channel's sweep
frames, one kernel block of them at a time. The rows are not checked here: a
mix that overflows leaves a non-finite sample, and a frame's power sum can
overflow even when every sample is finite; the detector kernel's energy
check catches both before any output is written. ``gen_noise_frame``,
``gen_signal_frame`` and ``gen_channel_timeline`` wrap the same rows in
ComplexFrames for the API (sample rate and center frequency 1 unless given).

SNR is defined against nominal spec powers (amplitude**2 for signals,
total_power for noise), not empirical per-frame powers, so threshold and ROC
results are reproducible across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .iq import BLOCK_FRAMES, ComplexFrame

# SeedSequence stream tags; keep noise draws and BPSK symbol draws apart even
# if a scenario reuses one seed for both.
_NOISE_STREAM = 1
_BPSK_STREAM = 2

_U64_MAX = 2**64 - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier. The hash constants run INIT, INIT*MULT, INIT*MULT**2,
# ... (mod 2**32), as columns: filling and cross-mixing the 4-word pool takes
# 4 + 12 hash calls, each word past the pool 4 more, generate_state(4, uint64) 8.
_MASK32 = 0xFFFFFFFF
_U128_MAX = 2**128 - 1


def _hash_consts(init: int, mult: int, start: int, stop: int) -> np.ndarray:
    """init * mult**i (mod 2**32) for i in [start, stop), as a uint32 column."""
    return np.array([init * pow(mult, i, 2**32) & _MASK32 for i in range(start, stop)],
                    np.uint32)[:, None]


_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 0, 17)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 0, 9)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

SIGNAL_KINDS = ("tone", "bpsk", "none")


def _check_seed(seed: int) -> int:
    if not 0 <= int(seed) <= _U64_MAX:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


@dataclass(frozen=True)
class NoiseSpec:
    """Circularly symmetric complex Gaussian noise: E[|y|^2] = total_power."""

    total_power: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.total_power < math.inf:
            raise ValueError("total_power must be a finite number > 0")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SignalSpec:
    """Deterministic synthetic waveform: a complex tone, BPSK, or nothing.

    ``normalized_freq`` is in cycles/sample; ``symbol_rate_divisor`` is the
    BPSK samples-per-symbol hold; ``phase`` applies to the tone kind. Both
    kinds have mean power exactly amplitude**2.
    """

    kind: str
    normalized_freq: float = 0.0
    symbol_rate_divisor: int = 1
    amplitude: float = 1.0
    phase: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"kind must be one of {SIGNAL_KINDS}, got {self.kind!r}")
        if not -0.5 < self.normalized_freq < 0.5:
            raise ValueError("normalized_freq must lie in (-0.5, 0.5)")
        if self.symbol_rate_divisor < 1:
            raise ValueError("symbol_rate_divisor must be >= 1")
        # the power amplitude**2 must be finite as well: amplitude < ~1.34e154
        if not (0 <= self.amplitude and self.amplitude * self.amplitude < math.inf):
            raise ValueError("amplitude must be a number >= 0 whose square is finite")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be a finite number")
        _check_seed(self.seed)

    @property
    def nominal_power(self) -> float:
        """Mean |x|^2 implied by the spec (0 for kind='none')."""
        return 0.0 if self.kind == "none" else self.amplitude**2


@dataclass(frozen=True)
class OccupancySchedule:
    """Periodic on/off transmitter schedule; ground truth for occupancy.

    ``on_intervals`` are half-open [start, end) seconds, disjoint, sorted,
    contained in [0, period_s). A frame is labeled present when its capture
    time modulo the period lands in an on interval.
    """

    period_s: float
    on_intervals: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.period_s > 0:
            raise ValueError("period_s must be > 0")
        ivals = tuple((float(a), float(b)) for a, b in self.on_intervals)
        prev_end = 0.0
        for start, end in ivals:
            if not (0.0 <= start < end <= self.period_s):
                raise ValueError(
                    f"interval ({start}, {end}) must satisfy 0 <= start < end <= period"
                )
            if start < prev_end:
                raise ValueError("on_intervals must be sorted and disjoint")
            prev_end = end
        object.__setattr__(self, "on_intervals", ivals)

    @property
    def duty_cycle(self) -> float:
        return sum(b - a for a, b in self.on_intervals) / self.period_s

    def is_on(self, t: float) -> bool:
        phase = t % self.period_s
        return any(a <= phase < b for a, b in self.on_intervals)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``words`` (or of one row, repeated).

    Row i xors consts[i], multiplies by consts[i + 1] and folds the high half
    into the low half; uint32 arithmetic wraps as SeedSequence's does.
    """
    x = (words ^ consts[:-1]) * consts[1:]
    return x ^ (x >> 16)


def _seed_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's 4-word pool for each column of a (words x F) uint32 entropy block.

    numpy's mix_entropy, once over all F columns: hash the first 4 words into
    the pool (0 where there are fewer), cross-mix the pool, then mix each word
    past the pool into every pool word.
    """
    words, frames = entropy.shape
    pool = np.zeros((4, frames), np.uint32)
    pool[:min(words, 4)] = entropy[:4]
    pool = _hashmix(pool, _HASH_A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[src], _HASH_A[4 + 3 * src:8 + 3 * src])
        r = _MIX_L * pool[dst] - _MIX_R * h
        pool[dst] = r ^ (r >> 16)
    if words > 4:  # the hash constants carry on from _HASH_A[16], 4 a word
        consts = _hash_consts(_INIT_A, _MULT_A, 16, 17 + 4 * (words - 4))
        for i, word in enumerate(entropy[4:]):
            r = _MIX_L * pool - _MIX_R * _hashmix(word, consts[4 * i:4 * i + 5])
            pool = r ^ (r >> 16)
    return pool


def seed_u64(entropies) -> list[int]:
    """``SeedSequence(e).generate_state(1, np.uint64)[0]`` for each e, without numpy.random.

    Each e is ints >= 0, each int its 32-bit words, low first (0 is one word), as in
    SeedSequence; all e have one word count, as one ``_seed_pool`` batch mixes them.
    """
    rows = []
    for entropy in entropies:
        rows.append([])
        for value in map(int, entropy):
            if value < 0:
                raise ValueError(f"entropy must be integers >= 0, got {value}")
            rows[-1].append(value & _MASK32)
            while value := value >> 32:
                rows[-1].append(value & _MASK32)
    pool = _seed_pool(np.array(rows, np.uint32).T)
    lo, hi = _hashmix(pool[:2], _HASH_B[:3]).tolist()
    return [high << 32 | low for low, high in zip(lo, hi)]


def _seed_states(entropy: np.ndarray) -> list:
    """PCG64 (state, inc) of SeedSequence(entropy[:, j]) for each column j of a (words x F) block.

    The pool (``_seed_pool``) gives generate_state(4, uint64), which seeds
    PCG64 as pcg64_set_seed does.
    """
    pool = _seed_pool(entropy)
    state = np.ascontiguousarray(_hashmix(np.tile(pool, (2, 1)), _HASH_B).T, "<u4")
    out = []
    for s_hi, s_lo, i_hi, i_lo in state.view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _U128_MAX
        out.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _U128_MAX, inc))
    return out


def _frame_rngs(seed: int, stream: int, indices):
    """Yield one Generator in the state of SeedSequence((seed, stream, k)) for each k in indices.

    The same Generator is reset for every k, so use each draw before taking
    the next. Indices >= 2**32 take two entropy words, as in SeedSequence, so
    the frames are seeded in groups by entropy length. Raises ValueError for
    an index outside [0, 2**64).
    """
    k = [int(i) for i in indices]
    if k and not 0 <= min(k) <= max(k) <= _U64_MAX:
        raise ValueError("frame indices must lie in [0, 2**64)")
    k = np.array(k, dtype=np.uint64)
    lo, hi = k.astype(np.uint32), (k >> 32).astype(np.uint32)
    head = np.array([seed & _MASK32] + ([seed >> 32] if seed >> 32 else []) + [stream], np.uint32)
    states = [None] * len(k)
    # an index below 2**32 is one entropy word, a larger one two (low word first)
    for rows, words in ((np.flatnonzero(hi == 0), [lo]), (np.flatnonzero(hi), [lo, hi])):
        if rows.size:
            entropy = np.vstack([np.tile(head[:, None], rows.size)] + [w[rows] for w in words])
            for i, state in zip(rows.tolist(), _seed_states(entropy)):
                states[i] = state
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state, inc in states:
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def noise_rows(n: int, spec: NoiseSpec, indices) -> np.ndarray:
    """(len(indices), n) complex Gaussian noise; row i is frame indices[i]'s draw.

    A row is the 2n standard normal draws of (seed, frame index), taken as
    (re, im) pairs and scaled by sqrt(total_power / 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1 (empty frames are not representable)")
    scale = math.sqrt(spec.total_power / 2.0)
    out = np.empty((len(indices), n), dtype=np.complex128)
    for row, rng in zip(out, _frame_rngs(spec.seed, _NOISE_STREAM, indices)):
        np.multiply(rng.standard_normal(2 * n).view(np.complex128), scale, out=row)
    return out


def signal_rows(n: int, spec: SignalSpec, indices) -> np.ndarray:
    """(len(indices), n) samples of the spec'd waveform; row i is frame indices[i]'s.

    tone: amplitude * exp(j*(2*pi*normalized_freq*m + phase)), the same for
    every frame (the rows are a read-only broadcast of one row).
    bpsk: amplitude * (+/-1) symbols, each held symbol_rate_divisor samples,
    symbol signs drawn from (seed, frame_index). none: zeros.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (empty frames are not representable)")
    if spec.kind == "tone":
        m = np.arange(n)
        row = spec.amplitude * np.exp(1j * (2 * np.pi * spec.normalized_freq * m + spec.phase))
        return np.broadcast_to(row, (len(indices), n))
    out = np.zeros((len(indices), n), dtype=np.complex128)
    if spec.kind == "bpsk":
        n_sym = -(-n // spec.symbol_rate_divisor)
        for row, rng in zip(out, _frame_rngs(spec.seed, _BPSK_STREAM, indices)):
            symbols = rng.integers(0, 2, size=n_sym) * 2 - 1
            row[:] = spec.amplitude * np.repeat(symbols, spec.symbol_rate_divisor)[:n]
    return out


def gen_noise_frame(n: int, spec: NoiseSpec, frame_index: int) -> ComplexFrame:
    """Generate n complex Gaussian noise samples, deterministic per (seed, frame_index)."""
    return ComplexFrame(noise_rows(n, spec, [frame_index])[0], 1.0, 1.0)


def gen_signal_frame(n: int, spec: SignalSpec, frame_index: int) -> ComplexFrame:
    """Generate n samples of the spec'd waveform (see ``signal_rows``)."""
    return ComplexFrame(signal_rows(n, spec, [frame_index])[0], 1.0, 1.0)


def snr_scale(signal_power: float, noise_power: float, snr_db: float) -> float:
    """Amplitude factor a with (a^2 * signal_power) / noise_power = 10**(snr_db/10).

    snr_db may be -inf (scale 0, i.e. absent signal); NaN, +inf and an SNR
    whose power ratio overflows (about 3082.5 dB and up) raise ValueError. A
    zero-power signal is only meaningful with snr_db=-inf; any finite target
    raises ValueError.
    """
    if not noise_power > 0:
        raise ValueError("noise_power must be > 0")
    if not snr_db < math.inf:
        raise ValueError(f"snr_db must be a number < inf (-inf for no signal), got {snr_db}")
    if snr_db == -math.inf:
        return 0.0
    if signal_power <= 0:
        raise ValueError("zero-power signal cannot be scaled to a finite SNR")
    try:
        ratio = 10 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} overflows the power ratio 10**(snr_db/10)") from None
    return math.sqrt(ratio * noise_power / signal_power)


def frame_count(total_s: float, frame_interval_s: float) -> int:
    """Frames in one channel's sweep: floor(total_s / frame_interval_s)."""
    if not frame_interval_s > 0:
        raise ValueError("frame_interval_s must be > 0")
    if total_s < 0:
        raise ValueError("total_s must be >= 0")
    # tolerance absorbs float division artifacts like 10/0.1 -> 99.999...
    return int(math.floor(total_s / frame_interval_s + 1e-9))


def channel_window(
    schedule: OccupancySchedule,
    signal: SignalSpec,
    noise: NoiseSpec,
    snr_db: float,
    frame_len: int,
    frame_interval_s: float,
    frames: range,
    *,
    start_time: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel's (times, rows, truth_labels) for a window of 1 to BLOCK_FRAMES frames.

    Frame k, captured at start_time + k*frame_interval_s, is labeled present and
    is signal+noise at snr_db where the schedule is on, else the same noise draw
    alone. An overflowing mix leaves non-finite samples, which the kernel reports.
    """
    alpha = snr_scale(signal.nominal_power, noise.total_power, snr_db) \
        if signal.kind != "none" else 0.0
    times = start_time + np.arange(frames.start, frames.stop) * frame_interval_s
    labels = np.array([schedule.is_on(t - start_time) for t in times.tolist()], dtype=bool)
    (rows,) = mixed_blocks(signal, noise, alpha, frame_len, frames, labels)
    return times, rows, labels


def mixed_blocks(signal: SignalSpec, noise: NoiseSpec, alpha: float, n: int, frames: range,
                 labels=None):
    """Yield the rows of ``frames``, <= BLOCK_FRAMES at a time: ``alpha * signal + noise``.

    Each block is a (rows x n) complex128 array. ``labels`` has one bool per
    frame of ``frames`` (None: every frame present); frames labeled False, and
    every frame when alpha is 0, are noise alone.
    """
    # the tone is the same in every frame; an overflowing scale or mix leaves
    # a non-finite sample, whose energy the detector kernel reports
    with np.errstate(over="ignore", invalid="ignore"):
        tone = alpha * signal_rows(n, signal, [0]) if signal.kind == "tone" else None
    for start in frames[::BLOCK_FRAMES]:
        idx = range(start, min(start + BLOCK_FRAMES, frames.stop))
        rows = noise_rows(n, noise, idx)
        k = start - frames.start
        on = np.arange(len(idx)) if labels is None else np.flatnonzero(labels[k:k + len(idx)])
        if alpha != 0.0 and on.size:
            with np.errstate(over="ignore", invalid="ignore"):
                rows[on] += alpha * signal_rows(n, signal, start + on) if tone is None else tone
        yield rows


def gen_channel_timeline(
    schedule: OccupancySchedule,
    signal: SignalSpec,
    noise: NoiseSpec,
    snr_db: float,
    frame_len: int,
    frame_interval_s: float,
    total_s: float,
    *,
    center_freq_hz: float = 1.0,
    start_time: float = 0.0,
) -> list[tuple[ComplexFrame, bool]]:
    """``channel_window``'s frames k = 0 .. floor(total_s/frame_interval_s)-1 as
    (frame, truth_label) pairs."""
    frames = range(frame_count(total_s, frame_interval_s))
    windows = (channel_window(schedule, signal, noise, snr_db, frame_len, frame_interval_s,
                              frames[k:k + BLOCK_FRAMES], start_time=start_time)
               for k in frames[::BLOCK_FRAMES])
    return [(ComplexFrame(row, 1.0, center_freq_hz, t), label) for times, rows, labels in windows
            for t, row, label in zip(times.tolist(), rows, labels.tolist())]
