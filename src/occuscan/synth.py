"""Seeded synthetic baseband generation with ground-truth presence labels.

Everything here is a pure function of its arguments: each frame's randomness
comes from ``SeedSequence((seed, stream, frame_index))``, so regenerating a
frame at any index, in any process, gives bit-identical samples. Seeding is
apart from drawing: ``_seed_states`` runs SeedSequence's mixing once over a
batch of entropy rows in uint32 arithmetic, for ``_frame_states``' rows of
(seed, stream, k) and derived seeds alike, then ``_generators`` sets one
reused PCG64 to each frame's state. Only this module loads ``numpy.random``,
and only where it draws, so deriving seeds does not.

Frames are plain complex128 rows: ``noise_rows`` and ``signal_rows`` make
(frames x N) blocks, and only this module's two frame makers add them, at one
scale rule (``_scale``). ``channel_windows`` makes the sweep's channels of a
spec table window by window, adding ``alpha * signal`` where each schedule is
on; ``trial_rows`` makes paired trials block by block, noise alone (H0) and
then mixed at each SNR (H1), for ``eval`` and ``calibrate``.
The rows are not checked here: a mix that overflows leaves a non-finite
sample, and a frame's power sum can overflow even when every sample is
finite; the detector kernel's energy check catches both before any output is
written.
``gen_noise_frame``, ``gen_signal_frame`` and ``gen_channel_timeline`` wrap
the same rows in ComplexFrames for the API (sample rate and center frequency
1 unless given).

SNR is defined against nominal spec powers (amplitude**2 for signals,
total_power for noise), not empirical per-frame powers, so threshold and ROC
results are reproducible across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .iq import BLOCK_FRAMES, ComplexFrame

# SeedSequence stream tags; keep noise draws and BPSK symbol draws apart even
# if a scenario reuses one seed for both.
_NOISE_STREAM = 1
_BPSK_STREAM = 2

_U64_MAX = 2**64 - 1

SEED_TRIALS = 1024  # trials per trial_rows noise seeding call: 32 kernel blocks, 32 KB of states

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier. The hash constants run INIT, INIT*MULT, INIT*MULT**2,
# ... (mod 2**32), as columns: filling and cross-mixing the 4-word pool takes
# 4 + 12 hash calls, each word past the pool 4 more, generate_state(4, uint64) 8.
_U128_MAX = 2**128 - 1


def _hash_consts(init: int, mult: int, start: int, stop: int) -> np.ndarray:
    """init * mult**i (mod 2**32) for i in [start, stop), as a uint32 column."""
    return np.array([init * pow(mult, i, 2**32) % 2**32 for i in range(start, stop)],
                    np.uint32)[:, None]


_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 0, 17)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 0, 9)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

SIGNAL_KINDS = ("tone", "bpsk", "none")


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) <= _U64_MAX:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


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

    def on_mask(self, t: np.ndarray) -> np.ndarray:
        """Whether each time in ``t``, modulo the period (np.mod rounds and signs as Python's
        float % does), lands in an on interval."""
        phase, on = np.mod(t, self.period_s), np.zeros(len(t), dtype=bool)
        for a, b in self.on_intervals:  # not a 2-D compare and any(): 0.2 MB more worker RSS
            on |= (a <= phase) & (phase < b)
        return on


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


def _seed_states(entropy, words: int) -> np.ndarray:
    """generate_state(words, uint64) of SeedSequence(row), words <= 4, for each row of the
    ``entropy`` columns, each one value in [0, 2**64) or one per row.

    A value >= 2**32 is two entropy words, low first, as in SeedSequence: a row's words are
    its values' low words, each followed by its high word where that is not 0, and one
    ``_seed_pool`` batch mixes the rows of each word count. It uses few numpy operations:
    each one's first use maps more of numpy's code into the process.
    """
    columns = np.broadcast_arrays(*(np.asarray(c, "<u8") for c in entropy))
    halves = np.column_stack(columns).view("<u4")  # per row: low, high, low, high, ...
    keep = halves.astype(bool)
    keep[:, ::2] = True
    count = np.full(len(halves), len(columns))
    for wide in keep[:, 1::2].T:
        count[wide] += 1
    out = np.empty((len(halves), 2 * words), "<u4")
    for n in set(count.tolist()):
        at = np.flatnonzero(count == n)
        pool = _seed_pool(halves[at][keep[at]].reshape(len(at), n).T)
        out[at] = _hashmix(np.tile(pool, (2, 1))[:2 * words], _HASH_B[:2 * words + 1]).T
    return out.view("<u8")


def _frame_states(seeds, stream: int, indices) -> np.ndarray:
    """``_seed_states`` of (seed, stream, k) for each k in indices, 4 words each; ``seeds``
    is one seed or one per index."""
    k = [int(i) for i in indices]
    if k and not 0 <= min(k) <= max(k) <= _U64_MAX:
        raise ValueError("frame indices must lie in [0, 2**64)")
    return _seed_states([seeds, stream, k], 4)


def _generators(states: np.ndarray):
    """Yield one Generator, its PCG64 seeded from each row of ``_frame_states`` as
    pcg64_set_seed does: the same Generator each time, so draw before taking the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for row in states:
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _U128_MAX
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _U128_MAX
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def _normal_rows(rngs, out: np.ndarray, scale: float) -> None:
    """Fill each row of complex ``out`` with the next generator's normals, times ``scale``."""
    if out.shape[1] < 1:
        raise ValueError("n must be >= 1 (empty frames are not representable)")
    flat = out.view(np.float64)
    for row, rng in zip(flat, rngs):
        rng.standard_normal(out=row)
    flat *= scale


def noise_rows(n: int, spec: NoiseSpec, indices) -> np.ndarray:
    """(len(indices), n) complex Gaussian noise; row i draws indices[i].

    A row is the 2n standard normal draws of (seed, frame index), taken as
    (re, im) pairs and scaled by sqrt(total_power / 2).
    """
    out = np.empty((len(indices), n), dtype=np.complex128)
    rngs = _generators(_frame_states(spec.seed, _NOISE_STREAM, indices))
    _normal_rows(rngs, out, math.sqrt(spec.total_power / 2.0))
    return out


def signal_rows(n: int, spec: SignalSpec, indices, seed: int | None = None) -> np.ndarray:
    """(len(indices), n) samples of the spec'd waveform; row i is frame indices[i]'s.

    tone: amplitude * exp(j*(2*pi*normalized_freq*m + phase)), the same for
    every frame (the rows are a read-only broadcast of one row).
    bpsk: amplitude * (+/-1) symbols, each held symbol_rate_divisor samples,
    symbol signs drawn from (``seed``, else spec.seed, frame_index). none: zeros.
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
        seed = spec.seed if seed is None else seed
        for row, rng in zip(out, _generators(_frame_states(seed, _BPSK_STREAM, indices))):
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


def _scale(signal: SignalSpec, noise: NoiseSpec, snr_db: float) -> float:
    """snr_scale at snr_db; 0 for a ``kind: none`` signal, which has no power to scale."""
    if signal.kind == "none":
        return 0.0
    return snr_scale(signal.nominal_power, noise.total_power, snr_db)


def trial_rows(n: int, signal: SignalSpec, noise: NoiseSpec, snr_dbs, trials):
    """Yield (i, h, rows) for each block of at most BLOCK_FRAMES paired trials from trials[i]:
    h = 0 and its noise (H0), then h = 1 + k and noise + alpha * signal at snr_dbs[k] (H1;
    the noise where alpha is 0). Noise is seeded SEED_TRIALS trials at a time. Blocks reuse
    one noise buffer and one mix buffer, and no mix writes to the noise: a block's H0 rows
    stay as drawn until the next block is taken, and each H1's rows until the next H1."""
    alphas = [_scale(signal, noise, snr_db) for snr_db in snr_dbs]
    buffer = np.empty((min(len(trials), BLOCK_FRAMES), n), dtype=np.complex128)
    mix_buffer = np.empty_like(buffer)
    for i in range(0, len(trials), BLOCK_FRAMES):
        if i % SEED_TRIALS == 0:  # a call's fixed cost is some hundreds of frames' seeding
            seeded = trials[i:i + SEED_TRIALS]
            noise_rngs = _generators(_frame_states(noise.seed, _NOISE_STREAM, seeded))
        sig = None  # the last block's signal rows go before this block's are drawn
        block = trials[i:i + BLOCK_FRAMES]
        rows, mixed = buffer[:len(block)], mix_buffer[:len(block)]
        _normal_rows(islice(noise_rngs, len(block)), rows, math.sqrt(noise.total_power / 2.0))
        for h, alpha in enumerate([0.0, *alphas]):  # H0 is the noise rows, at scale 0
            if alpha:  # an overflowing mix leaves a non-finite energy, which the kernel reports
                if sig is None:  # drawn after H0 is used
                    sig = signal_rows(n, signal, block)
                with np.errstate(over="ignore", invalid="ignore"):
                    np.add(rows, np.multiply(sig, alpha, out=mixed), out=mixed)
            yield i, h, mixed if alpha else rows


def frame_count(total_s: float, frame_interval_s: float) -> int:
    """Frames in one channel's sweep: floor(total_s / frame_interval_s)."""
    if not frame_interval_s > 0:
        raise ValueError("frame_interval_s must be > 0")
    if total_s < 0:
        raise ValueError("total_s must be >= 0")
    # tolerance absorbs float division artifacts like 10/0.1 -> 99.999...
    return int(math.floor(total_s / frame_interval_s + 1e-9))


def channel_windows(table, frame_len: int, frame_interval_s: float, frames: range,
                    channels: slice = slice(None), *, start_time: float = 0.0):
    """Yield (times, rows, labels) for each window of at most BLOCK_FRAMES of ``frames``
    and, in it, each of the ``channels`` of the spec table ``table``: (specs, spec,
    signal_seeds, noise_seeds), channel i being drawn from specs[spec[i]], a (signal, noise,
    schedule, snr_db) tuple, with signal_seeds[i] and noise_seeds[i], not its specs' own seeds.

    Frame k, captured at start_time + k*frame_interval_s, is labeled present and is
    signal+noise at snr_db where the schedule is on, else the same noise draw alone.
    Only the specs the channels use get scales, tone rows and labels. Each window seeds every
    channel's noise in one pass, and its ``rows`` is one buffer refilled for each channel:
    use it before taking the next. An overflowing scale or mix leaves a non-finite sample,
    whose energy the kernel reports.
    """
    specs, *columns = table
    spec, signal_seeds, noise_seeds = (column[channels] for column in columns)
    used = {s: specs[s] for s in dict.fromkeys(spec)}
    alphas = {s: _scale(signal, noise, snr_db) for s, (signal, noise, _, snr_db) in used.items()}
    with np.errstate(over="ignore", invalid="ignore"):  # each tone spec's scaled row
        tones = {s: alphas[s] * signal_rows(frame_len, signal, [0])[0]
                 for s, (signal, *_) in used.items() if signal.kind == "tone"}
    for k in frames[::BLOCK_FRAMES]:
        window = range(k, min(k + BLOCK_FRAMES, frames.stop))
        times = start_time + np.arange(window.start, window.stop) * frame_interval_s
        labels = {s: schedule.on_mask(times - start_time) for s, (*_, schedule, _) in used.items()}
        rngs = _generators(_frame_states(np.repeat(np.asarray(noise_seeds, np.uint64),
                                                   len(window)), _NOISE_STREAM,
                                         list(window) * len(spec)))
        rows = np.empty((len(window), frame_len), dtype=np.complex128)
        for s, seed in zip(spec, signal_seeds):
            (signal, noise, _, _), on = used[s], labels[s]
            _normal_rows(islice(rngs, len(window)), rows, math.sqrt(noise.total_power / 2.0))
            if alphas[s] and on.any():
                i = np.flatnonzero(on)
                with np.errstate(over="ignore", invalid="ignore"):
                    rows[i] += tones[s] if s in tones else alphas[s] * signal_rows(
                        frame_len, signal, k + i, seed)
            yield times, rows, on


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
    """``channel_windows``' frames k = 0 .. floor(total_s/frame_interval_s)-1 of one
    channel as (frame, truth_label) pairs."""
    table = [(signal, noise, schedule, snr_db)], [0], [signal.seed], [noise.seed]
    windows = channel_windows(table, frame_len, frame_interval_s,
                              range(frame_count(total_s, frame_interval_s)), start_time=start_time)
    return [(ComplexFrame(row, 1.0, center_freq_hz, t), label) for times, rows, labels in windows
            for t, row, label in zip(times.tolist(), rows, labels.tolist())]
