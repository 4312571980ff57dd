"""Seeded waveform generation, SNR mixing, and channel timelines."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occuscan import (
    AcfVector,
    DetectorConfig,
    NoiseSpec,
    OccupancySchedule,
    SignalSpec,
    gen_channel_timeline,
    gen_noise_frame,
    gen_signal_frame,
    snr_scale,
)
from occuscan.detectors import block_statistics
from occuscan.errors import SampleDataError
from occuscan import synth
from occuscan.synth import (_frame_states, _generators, _seed_states, channel_windows,
                            noise_rows, signal_rows, trial_rows)
from conftest import spec_table

ALWAYS_ON = OccupancySchedule(1.0, ((0.0, 1.0),))


def window_rows(signal, noise, snr_db, n, frames):
    """An always-on channel's rows from ``channel_windows``, a block per window of ``frames``."""
    return [rows for _, rows, _ in channel_windows(
        spec_table([(signal, noise, ALWAYS_ON, snr_db)]), n, 1.0, frames)]


class TestNoise:
    def test_mean_power_within_one_percent(self):
        f = gen_noise_frame(65536, NoiseSpec(total_power=1.0, seed=3), 0)
        p = np.mean(np.abs(f.samples) ** 2)
        assert 0.99 < p < 1.01

    def test_power_scales_linearly(self):
        spec1 = NoiseSpec(total_power=1.0, seed=3)
        spec4 = NoiseSpec(total_power=4.0, seed=3)
        f1 = gen_noise_frame(4096, spec1, 5)
        f4 = gen_noise_frame(4096, spec4, 5)
        np.testing.assert_allclose(f4.samples, 2.0 * f1.samples, rtol=1e-15)

    def test_deterministic_per_index(self):
        spec = NoiseSpec(total_power=2.0, seed=11)
        a = gen_noise_frame(256, spec, 7)
        b = gen_noise_frame(256, spec, 7)
        c = gen_noise_frame(256, spec, 8)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_different_seeds_differ(self):
        a = gen_noise_frame(64, NoiseSpec(1.0, seed=1), 0)
        b = gen_noise_frame(64, NoiseSpec(1.0, seed=2), 0)
        assert not np.array_equal(a.samples, b.samples)

    def test_big_frame_power_calibration(self):
        # 2**20 samples: the mean-power estimator sigma is ~1e-3, so 1 percent
        # is a >5 sigma margin
        f = gen_noise_frame(2**20, NoiseSpec(total_power=1.0, seed=0), 0)
        assert np.mean(np.abs(f.samples) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            NoiseSpec(total_power=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(total_power=1.0, seed=-1)
        with pytest.raises(ValueError):
            gen_noise_frame(0, NoiseSpec(1.0), 0)
        for power in (math.inf, math.nan):
            with pytest.raises(ValueError):
                NoiseSpec(total_power=power)

    def test_matches_legacy_strided_formula(self):
        """A frame is scale * (z[0::2] + 1j*z[1::2]) of its 2n draws, bit for bit."""
        spec = NoiseSpec(total_power=2.5, seed=123456789)
        scale = math.sqrt(spec.total_power / 2.0)
        for k in range(300):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1, k)))
            z = rng.standard_normal(2 * 100)
            legacy = scale * (z[0::2] + 1j * z[1::2])
            samples = gen_noise_frame(100, spec, k).samples
            assert samples.view(np.int64).tolist() == legacy.view(np.int64).tolist(), k

    def test_rows_are_frames(self):
        spec = NoiseSpec(total_power=1.0, seed=9)
        rows = noise_rows(64, spec, [7, 3, 40])
        for row, k in zip(rows, [7, 3, 40]):
            np.testing.assert_array_equal(row, gen_noise_frame(64, spec, k).samples)


class TestBlockSeeder:
    """One pass seeds a block's generators exactly as per-frame SeedSequences do."""

    @staticmethod
    def _per_frame(seed, stream, k):
        return np.random.default_rng(np.random.SeedSequence((seed, stream, k)))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        stream=st.sampled_from([1, 2]),
        start=st.sampled_from([0, 2**32 - 20, 2**64 - 41]) | st.integers(0, 2**64 - 41),
        count=st.integers(0, 40),
    )
    def test_rows_equal_per_frame_generators(self, seed, stream, start, count):
        frames = range(start, start + count)  # from 2**32 - 20, the range crosses 2**32
        for k, rng in zip(frames, _generators(_frame_states(seed, stream, frames)), strict=True):
            expected = self._per_frame(seed, stream, k)
            assert rng.bit_generator.state == expected.bit_generator.state, k
            draws = rng.standard_normal(3), rng.integers(0, 2, size=5)
            assert draws[0].tolist() == expected.standard_normal(3).tolist()
            assert draws[1].tolist() == expected.integers(0, 2, size=5).tolist()

    def test_unordered_indices_either_side_of_2_32(self):
        ks = [2**32 + 1, 0, 2**64 - 1, 2**32 - 1, 7, 2**32]
        states = _frame_states(2**40 + 3, 1, np.array(ks, dtype=np.uint64))
        got = [rng.bit_generator.state for rng in _generators(states)]
        assert got == [self._per_frame(2**40 + 3, 1, k).bit_generator.state for k in ks]
        spec = SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=2**64 - 1)
        np.testing.assert_array_equal(signal_rows(20, spec, ks),
                                      [gen_signal_frame(20, spec, k).samples for k in ks])

    WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]

    @staticmethod
    def _seed_sequence_states(entropy, words):
        rows = max((len(c) for c in entropy if isinstance(c, list)), default=1)
        return [np.random.SeedSequence([c[i] if isinstance(c, list) else c for c in entropy])
                .generate_state(words, np.uint64).tolist() for i in range(rows)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), columns=st.integers(1, 4), rows=st.integers(1, 12),
           words=st.sampled_from([1, 4]))
    def test_seed_states_equal_seed_sequence(self, data, columns, rows, words):
        """Scalar and per-row columns; with 4 two-word values a row is 8 words, past the pool."""
        value = st.sampled_from(self.WORD_EDGES) | st.integers(0, 2**64 - 1)
        entropy = [data.draw(value | st.lists(value, min_size=rows, max_size=rows))
                   for _ in range(columns)]
        states = _seed_states(entropy, words)
        assert states.dtype == np.uint64
        assert states.tolist() == self._seed_sequence_states(entropy, words)

    @pytest.mark.parametrize("words", [1, 4])
    def test_seed_states_mix_one_and_two_word_values(self, words):
        entropy = [[5, 2**32, 2**64 - 1, 0, 2**32 - 1], 7, [2**32 + 1, 3, 3, 2**40, 0]]
        assert _seed_states(entropy, words).tolist() == self._seed_sequence_states(entropy, words)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(WORD_EDGES) | st.integers(0, 2**64 - 1),
                                   st.sampled_from(WORD_EDGES) | st.integers(0, 2**64 - 1)),
                         min_size=1, max_size=16),
           stream=st.sampled_from([1, 2]))
    def test_batch_mixes_seed_and_index_word_counts(self, rows, stream):
        """One call seeds rows of 3, 4 and 5 entropy words, each as its own SeedSequence."""
        seeds = np.array([seed for seed, _ in rows], dtype=np.uint64)
        states = _frame_states(seeds, stream, [k for _, k in rows])
        assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
        for (seed, k), words in zip(rows, states.tolist()):
            assert words == np.random.SeedSequence((seed, stream, k)).generate_state(
                4, np.uint64).tolist()
        got = [rng.bit_generator.state for rng in _generators(states)]
        assert got == [self._per_frame(seed, stream, k).bit_generator.state for seed, k in rows]

    def test_one_call_holds_every_word_count(self):
        """Seeds below and above 2**32 beside indices either side of 2**32, in one call."""
        rows = [(seed, k) for seed in (5, 2**32 - 1, 2**32, 2**64 - 1)
                for k in (0, 2**32 - 1, 2**32, 2**64 - 1)]
        states = _frame_states([seed for seed, _ in rows], 1, [k for _, k in rows])
        got = [rng.bit_generator.state for rng in _generators(states)]
        assert got == [self._per_frame(seed, 1, k).bit_generator.state for seed, k in rows]

    @pytest.mark.parametrize("indices", [[-1], [3, 2**64], [0, -5, 2]])
    def test_rejects_indices_outside_u64(self, indices):
        with pytest.raises(ValueError, match="frame indices"):
            noise_rows(8, NoiseSpec(1.0, seed=1), indices)


class TestSignal:
    def test_tone_unit_modulus(self):
        spec = SignalSpec(kind="tone", normalized_freq=0.1, amplitude=2.5)
        f = gen_signal_frame(100, spec, 0)
        np.testing.assert_allclose(np.abs(f.samples), 2.5, rtol=1e-12)

    def test_tone_dc(self):
        spec = SignalSpec(kind="tone", normalized_freq=0.0, amplitude=1.0)
        f = gen_signal_frame(8, spec, 0)
        np.testing.assert_allclose(f.samples, np.ones(8), rtol=0, atol=1e-15)

    def test_tone_quarter_rate(self):
        # freq 0.25 walks the unit circle in steps of j
        spec = SignalSpec(kind="tone", normalized_freq=0.25)
        f = gen_signal_frame(4, spec, 0)
        np.testing.assert_allclose(f.samples, [1, 1j, -1, -1j], atol=1e-12)

    def test_tone_phase_offset(self):
        spec = SignalSpec(kind="tone", normalized_freq=0.0, phase=np.pi / 2)
        f = gen_signal_frame(2, spec, 0)
        np.testing.assert_allclose(f.samples, [1j, 1j], atol=1e-12)

    def test_bpsk_alphabet_and_hold(self):
        spec = SignalSpec(kind="bpsk", symbol_rate_divisor=4, amplitude=3.0, seed=5)
        f = gen_signal_frame(32, spec, 2)
        assert set(np.unique(f.samples.real)) <= {-3.0, 3.0}
        np.testing.assert_array_equal(f.samples.imag, np.zeros(32))
        blocks = f.samples.reshape(8, 4)
        for row in blocks:
            assert np.all(row == row[0])
        # exact mean power
        assert np.mean(np.abs(f.samples) ** 2) == 9.0

    def test_bpsk_partial_symbol(self):
        spec = SignalSpec(kind="bpsk", symbol_rate_divisor=4, seed=5)
        f = gen_signal_frame(10, spec, 0)
        assert len(f) == 10
        full = gen_signal_frame(12, spec, 0)
        np.testing.assert_array_equal(f.samples, full.samples[:10])

    def test_bpsk_deterministic(self):
        spec = SignalSpec(kind="bpsk", seed=9)
        a = gen_signal_frame(64, spec, 1)
        b = gen_signal_frame(64, spec, 1)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_none_is_zeros(self):
        f = gen_signal_frame(16, SignalSpec(kind="none"), 0)
        np.testing.assert_array_equal(f.samples, np.zeros(16))
        assert SignalSpec(kind="none").nominal_power == 0.0

    def test_nominal_power(self):
        assert SignalSpec(kind="tone", amplitude=2.0).nominal_power == 4.0
        assert SignalSpec(kind="bpsk", amplitude=0.5).nominal_power == 0.25

    def test_amplitude_with_overflowing_power_rejected(self):
        assert SignalSpec(kind="tone", amplitude=1.0e154).nominal_power == pytest.approx(1e308)
        for amplitude in (1.35e154, 1.0e200, 1.0e300):
            with pytest.raises(ValueError, match="square is finite"):
                SignalSpec(kind="tone", amplitude=amplitude)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="chirp")
        with pytest.raises(ValueError):
            SignalSpec(kind="tone", normalized_freq=0.5)
        for amplitude in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SignalSpec(kind="tone", amplitude=amplitude)
        with pytest.raises(ValueError):
            SignalSpec(kind="bpsk", symbol_rate_divisor=0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_phase_must_be_finite(self, phase):
        with pytest.raises(ValueError, match="phase"):
            SignalSpec(kind="tone", phase=phase)

    @pytest.mark.parametrize("kind", ["tone", "bpsk", "none"])
    def test_rows_of_no_samples_rejected(self, kind):
        with pytest.raises(ValueError, match="n must be >= 1"):
            signal_rows(0, SignalSpec(kind=kind), [0, 1])


class TestSchedule:
    def test_duty_cycle(self):
        s = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.3),))
        assert s.duty_cycle == pytest.approx(0.3)
        assert OccupancySchedule(10.0).duty_cycle == 0.0

    def test_on_mask_half_open_and_periodic(self):
        s = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.3),))
        assert s.on_mask(np.array([0.0, 0.29999, 0.3, 1.25, 1.5])).tolist() == [
            True, True, False, True, False]

    def test_multiple_intervals(self):
        s = OccupancySchedule(period_s=2.0, on_intervals=((0.0, 0.5), (1.0, 1.25)))
        assert s.duty_cycle == pytest.approx(0.375)
        assert s.on_mask(np.array([1.1, 0.75])).tolist() == [True, False]

    @settings(max_examples=300, deadline=None)
    @given(period=st.sampled_from([1.0, 0.1, 60.0, 86400.0]) | st.floats(1e-3, 1e6),
           cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), max_size=6),
           start=st.sampled_from([0.0, 1767225600.0, 1e10]) | st.floats(-1e10, 1e10),
           interval=st.sampled_from([0.1, 1.0, 1e-3]) | st.floats(1e-6, 1e3),
           offsets=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=50))
    def test_on_mask_equals_per_time_rule(self, period, cuts, start, interval, offsets):
        """The sweep's vector labels are, at every edge, whether each frame's time modulo
        the period (Python's float %) lands in an on interval."""
        edges = sorted({period * c for c in cuts})  # 0, period / 2 and period are exact
        schedule = OccupancySchedule(period, tuple(zip(edges[::2], edges[1::2])))
        offsets += [round(period / interval * m) for m in (0, 0.5, 1, 2)]
        times = start + np.array(offsets, dtype=np.float64) * interval
        assume(np.isfinite(times).all())
        assert schedule.on_mask(times - start).tolist() == [
            any(a <= (t - start) % period < b for a, b in schedule.on_intervals)
            for t in times.tolist()]

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            OccupancySchedule(period_s=0.0)
        with pytest.raises(ValueError):
            OccupancySchedule(1.0, ((0.5, 0.4),))
        with pytest.raises(ValueError):
            OccupancySchedule(1.0, ((0.0, 1.5),))
        with pytest.raises(ValueError):
            OccupancySchedule(1.0, ((0.0, 0.6), (0.5, 0.9)))


class TestSnrScale:
    def test_zero_db_unit_powers(self):
        assert snr_scale(1.0, 1.0, 0.0) == 1.0

    def test_known_value(self):
        # 20 dB, noise 2, signal 8: sqrt(100 * 2 / 8) = 5
        assert snr_scale(8.0, 2.0, 20.0) == pytest.approx(5.0, rel=1e-15)

    def test_minus_inf_means_absent(self):
        assert snr_scale(1.0, 1.0, -math.inf) == 0.0
        assert snr_scale(0.0, 1.0, -math.inf) == 0.0

    def test_zero_power_signal_finite_snr_rejected(self):
        with pytest.raises(ValueError):
            snr_scale(0.0, 1.0, 10.0)

    def test_bad_noise_power(self):
        with pytest.raises(ValueError):
            snr_scale(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("snr_db", [math.inf, math.nan])
    def test_nan_and_plus_inf_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            snr_scale(1.0, 1.0, snr_db)

    def test_overflowing_power_ratio_rejected(self):
        # 10 ** (snr_db / 10) overflows a float from about 3082.5 dB
        assert snr_scale(1.0, 1.0, 3082.0) > 0
        with pytest.raises(ValueError, match="snr_db 4000.0 overflows"):
            snr_scale(1.0, 1.0, 4000.0)

    @settings(max_examples=200, deadline=None)
    @given(
        sp=st.floats(min_value=1e-6, max_value=1e6),
        np_=st.floats(min_value=1e-6, max_value=1e6),
        snr=st.floats(min_value=-60.0, max_value=60.0),
    )
    def test_achieves_requested_ratio(self, sp, np_, snr):
        a = snr_scale(sp, np_, snr)
        assert (a * a * sp) / np_ == pytest.approx(10 ** (snr / 10.0), rel=1e-12)


class TestMix:
    def test_mix_is_exact_linear_combination(self):
        tone, noise = SignalSpec(kind="tone", normalized_freq=0.1), NoiseSpec(1.0, seed=4)
        alpha = snr_scale(1.0, 1.0, 6.0)
        [mixed] = window_rows(tone, noise, 6.0, 128, range(5, 6))
        np.testing.assert_array_equal(
            mixed, [alpha * gen_signal_frame(128, tone, 5).samples
                    + gen_noise_frame(128, noise, 5).samples])

    def test_minus_inf_returns_noise(self):
        [mixed] = window_rows(SignalSpec(kind="tone"), NoiseSpec(1.0), -math.inf, 8, range(1))
        np.testing.assert_array_equal(mixed, [gen_noise_frame(8, NoiseSpec(1.0), 0).samples])

    @pytest.mark.parametrize("signal", [
        SignalSpec(kind="tone", normalized_freq=0.1),
        SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5),
        SignalSpec(kind="none"),
    ], ids=["tone", "bpsk", "none"])
    @pytest.mark.parametrize("snr_dbs", [[6.0], [-math.inf], [6.0, -math.inf, -3.0]],
                             ids=["one", "zero-scale", "three"])
    def test_trial_rows_are_paired_frames(self, signal, snr_dbs):
        """Blocks of 32 + 11 trials: the noise frames (H0), then alpha * signal + noise at
        each SNR (H1; the noise where the scale is 0), bit for bit, in one mix or in many."""
        noise, trials = NoiseSpec(2.0, seed=4), range(60, 103)
        got = {}
        for i, h, rows in trial_rows(16, signal, noise, snr_dbs, trials):
            got.setdefault(h, []).append((i, rows.copy()))
        for h, blocks in got.items():
            assert [(i, len(rows)) for i, rows in blocks] == [(0, 32), (32, 11)]
        assert sorted(got) == list(range(1 + len(snr_dbs)))
        noise_frames = [gen_noise_frame(16, noise, k).samples for k in trials]
        np.testing.assert_array_equal(np.concatenate([r for _, r in got[0]]), noise_frames)
        for h, snr_db in enumerate(snr_dbs, 1):
            # kind none has no power to scale: 0 at any SNR
            alpha = 0.0 if signal.kind == "none" else snr_scale(signal.nominal_power, 2.0,
                                                                 snr_db)
            want = ([alpha * gen_signal_frame(16, signal, k).samples + n
                     for k, n in zip(trials, noise_frames)] if alpha else noise_frames)
            np.testing.assert_array_equal(np.concatenate([r for _, r in got[h]]), want)

    @pytest.mark.parametrize("signal", [
        SignalSpec(kind="tone", normalized_freq=0.1),
        SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5),
    ], ids=["tone", "bpsk"])
    def test_trial_rows_seeded_a_chunk_at_a_time(self, signal, monkeypatch):
        """Trials 1000 .. 2099, off any 1,024-trial boundary, get their noise seeded in two
        calls: 1,024 trials, then the 76 from block 32 on. Every block of H0 and of each H1
        is still the per-frame makers' frames bit for bit."""
        noise, trials, snr_dbs = NoiseSpec(2.0, seed=4), range(1000, 2100), [6.0, -3.0]
        seeded, frame_states = [], synth._frame_states
        monkeypatch.setattr(synth, "_frame_states", lambda seeds, stream, indices: (
            seeded.append((stream, indices)) or frame_states(seeds, stream, indices)))
        got = {}
        for i, h, rows in trial_rows(16, signal, noise, snr_dbs, trials):
            got.setdefault(h, []).append((i, rows.copy()))
        monkeypatch.undo()
        assert [c for s, c in seeded if s == synth._NOISE_STREAM] == [range(1000, 2024),
                                                                      range(2024, 2100)]
        assert [i for i, _ in got[0]] == list(range(0, 1100, 32))
        noise_frames = np.array([gen_noise_frame(16, noise, k).samples for k in trials])
        np.testing.assert_array_equal(np.concatenate([r for _, r in got[0]]), noise_frames)
        signal_frames = np.array([gen_signal_frame(16, signal, k).samples for k in trials])
        for h, snr_db in enumerate(snr_dbs, 1):
            alpha = snr_scale(signal.nominal_power, 2.0, snr_db)
            np.testing.assert_array_equal(np.concatenate([r for _, r in got[h]]),
                                          alpha * signal_frames + noise_frames)

    @pytest.mark.parametrize("signal", [
        SignalSpec(kind="tone", normalized_freq=0.1),
        SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5),
    ], ids=["tone", "bpsk"])
    @pytest.mark.parametrize("snr_dbs", [[6.0], [6.0, -math.inf, -3.0]], ids=["one", "three"])
    def test_trial_rows_keep_h0_as_drawn(self, signal, snr_dbs):
        """A block's H0 rows, held without a copy, are still its noise frames once every H1 of
        the block has been taken: no mix writes to the noise buffer."""
        noise, trials = NoiseSpec(2.0, seed=4), range(60, 103)
        checked = 0
        for i, h, rows in trial_rows(16, signal, noise, snr_dbs, trials):
            if h == 0:
                h0 = rows  # the buffer itself
            if h == len(snr_dbs):
                np.testing.assert_array_equal(h0, [gen_noise_frame(16, noise, k).samples
                                                   for k in trials[i:i + len(h0)]])
                checked += len(h0)
        assert checked == len(trials)

    def test_kind_none_scales_to_zero_at_any_snr(self):
        rows = [r.copy() for _, _, r in trial_rows(8, SignalSpec(kind="none"), NoiseSpec(1.0),
                                                    [10.0], range(3))]
        np.testing.assert_array_equal(rows[1], rows[0])
        [(_, rows, _)] = channel_windows(spec_table(
            [(SignalSpec(kind="none"), NoiseSpec(1.0), ALWAYS_ON, 10.0)]), 8, 1.0, range(3))
        np.testing.assert_array_equal(rows, noise_rows(8, NoiseSpec(1.0), range(3)))


class TestTimeline:
    SCHEDULE = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.3),))
    SIGNAL = SignalSpec(kind="tone", normalized_freq=0.2, seed=1)
    NOISE = NoiseSpec(total_power=1.0, seed=2)

    def test_frame_count_survives_float_division(self):
        # 10.0 / 0.1 is 99.999... in floats; must still yield 100 frames
        tl = gen_channel_timeline(
            self.SCHEDULE, self.SIGNAL, self.NOISE, 10.0, 32, 0.1, 10.0
        )
        assert len(tl) == 100

    def test_labels_follow_schedule(self):
        tl = gen_channel_timeline(
            self.SCHEDULE, self.SIGNAL, self.NOISE, 10.0, 16, 0.1, 1.0
        )
        labels = [present for _, present in tl]
        assert labels == [True, True, True] + [False] * 7

    def test_capture_times(self):
        tl = gen_channel_timeline(
            self.SCHEDULE, self.SIGNAL, self.NOISE, 0.0, 8, 0.5, 2.0, start_time=100.0
        )
        assert [f.capture_time for f, _ in tl] == [100.0, 100.5, 101.0, 101.5]

    def test_present_frame_is_noise_plus_scaled_signal(self):
        tl = gen_channel_timeline(
            self.SCHEDULE, self.SIGNAL, self.NOISE, 10.0, 64, 0.1, 1.0
        )
        alpha = snr_scale(1.0, 1.0, 10.0)
        for k, (frame, present) in enumerate(tl):
            noise_k = gen_noise_frame(64, self.NOISE, k)
            if present:
                sig_k = gen_signal_frame(64, self.SIGNAL, k)
                np.testing.assert_array_equal(
                    frame.samples, alpha * sig_k.samples + noise_k.samples
                )
            else:
                np.testing.assert_array_equal(frame.samples, noise_k.samples)

    def test_zero_total_is_empty(self):
        tl = gen_channel_timeline(self.SCHEDULE, self.SIGNAL, self.NOISE, 0.0, 8, 1.0, 0.0)
        assert tl == []

    def test_none_signal_never_adds_power(self):
        tl = gen_channel_timeline(
            self.SCHEDULE, SignalSpec(kind="none"), self.NOISE, -math.inf, 16, 0.1, 1.0
        )
        for k, (frame, present) in enumerate(tl):
            noise_k = gen_noise_frame(16, self.NOISE, k)
            np.testing.assert_array_equal(frame.samples, noise_k.samples)

    def test_blocks_match_timeline(self):
        """Windows of 32 and 8 of 40 frames are the timeline's times, frames and labels."""
        for signal in (self.SIGNAL, SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5)):
            windows = list(channel_windows(spec_table([(signal, self.NOISE, self.SCHEDULE, 3.0)]),
                                           16, 0.1, range(40), start_time=50.0))
            assert [len(rows) for _, rows, _ in windows] == [32, 8]
            tl = gen_channel_timeline(self.SCHEDULE, signal, self.NOISE, 3.0, 16, 0.1, 4.0,
                                      start_time=50.0)
            times, frames, labels = (np.concatenate(col) for col in zip(*windows))
            assert times.tolist() == [f.capture_time for f, _ in tl]
            assert times.tolist() == (50.0 + np.arange(40) * 0.1).tolist()
            assert labels.tolist() == [label for _, label in tl]
            np.testing.assert_array_equal(frames, np.stack([f.samples for f, _ in tl]))

    def test_channels_take_turns_in_each_window(self):
        """Two channels over 40 frames: window 0 of each, then window 1 of each, and each
        channel's (times, rows, labels) are those it makes alone."""
        bpsk = (SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5), NoiseSpec(2.0, seed=9),
                OccupancySchedule(0.7, ((0.2, 0.5),)), 1.0)
        channels = [(self.SIGNAL, self.NOISE, self.SCHEDULE, 3.0), bpsk]
        together = [(t, rows.copy(), on) for t, rows, on in
                    channel_windows(spec_table(channels), 16, 0.1, range(40), start_time=5.0)]
        alone = [list(channel_windows(spec_table([c]), 16, 0.1, range(40), start_time=5.0))
                 for c in channels]
        assert len(together) == 4
        for got, want in zip(together, [alone[0][0], alone[1][0], alone[0][1], alone[1][1]]):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_slice_builds_only_the_tone_rows_it_uses(self, monkeypatch):
        """A 32-channel slice of a 200-spec table builds one tone row for each distinct spec
        its channels use, whatever the table holds, and draws as that slice's own table."""
        specs = [(SignalSpec(kind="tone", normalized_freq=0.4 * i / 200), self.NOISE,
                  self.SCHEDULE, 3.0) for i in range(200)]
        spec = np.arange(400) // 2 % 200  # channels 2j and 2j + 1 share spec j
        table = specs, spec, np.arange(400, dtype=np.uint64), np.arange(400, dtype=np.uint64)
        channels = slice(101, 133)  # specs 50 .. 66: 17 of them
        built = []
        rows_of = synth.signal_rows

        def counted(n, signal, indices, seed=None):
            built.append(signal)
            return rows_of(n, signal, indices, seed)

        monkeypatch.setattr(synth, "signal_rows", counted)
        windows = [rows.copy() for _, rows, _ in
                   channel_windows(table, 16, 0.1, range(40), channels, start_time=5.0)]
        assert len(built) == len(set(spec[channels].tolist())) == 17
        assert built == [specs[s][0] for s in dict.fromkeys(spec[channels].tolist())]
        own = ([specs[s] for s in range(200)], spec[channels], *(c[channels] for c in table[2:]))
        alone = [rows.copy() for _, rows, _ in channel_windows(own, 16, 0.1, range(40),
                                                               start_time=5.0)]
        assert len(windows) == len(alone) == 64
        for got, want in zip(windows, alone):
            np.testing.assert_array_equal(got, want)

    def test_seed_columns_replace_the_specs_seeds(self):
        """Channels of one spec draw with their own seed columns, as that spec given each
        channel's seeds would, and not with the spec's own seeds."""
        bpsk = SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5)
        seeds = [(7, 11), (2**40 + 3, 2**63 + 9)]
        table = ([(bpsk, self.NOISE, self.SCHEDULE, 3.0)], np.zeros(2, np.intp),
                 *(np.array(column, np.uint64) for column in zip(*seeds)))
        together = [rows.copy() for _, rows, _ in channel_windows(table, 16, 0.1, range(40))]
        alone = [rows for signal_seed, noise_seed in seeds for _, rows, _ in channel_windows(
            spec_table([(SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=signal_seed),
                           NoiseSpec(self.NOISE.total_power, seed=noise_seed),
                           self.SCHEDULE, 3.0)]), 16, 0.1, range(40))]
        for got, want in zip(together, [alone[0], alone[2], alone[1], alone[3]]):
            np.testing.assert_array_equal(got, want)
        spec_seeds = [rows for _, rows, _ in channel_windows(
            spec_table([(bpsk, self.NOISE, self.SCHEDULE, 3.0)]), 16, 0.1, range(40))]
        assert not np.array_equal(together[0], spec_seeds[0])

    def test_signal_rows_are_frames(self):
        for spec in (self.SIGNAL, SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5),
                     SignalSpec(kind="none")):
            rows = signal_rows(20, spec, [4, 0])
            np.testing.assert_array_equal(rows[0], gen_signal_frame(20, spec, 4).samples)
            np.testing.assert_array_equal(rows[1], gen_signal_frame(20, spec, 0).samples)

    def test_overflowing_mix_is_an_error(self):
        """An overflowing mix leaves non-finite samples, which the detector kernel reports."""
        noise = NoiseSpec(total_power=1.0e308, seed=2)
        ref = AcfVector(np.array([1.0] + [0.5] * 7))
        config = DetectorConfig(1.1, 0.25, 0.6, 8, ref)
        message = "^frame 0: energy is not finite \\(a sample or the power sum overflows\\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape either
            [(_, rows, _)] = channel_windows(
                spec_table([(self.SIGNAL, noise, self.SCHEDULE, 10.0)]), 16, 0.1, range(10))
            with pytest.raises(SampleDataError, match=message):
                block_statistics(rows, config.reference)
            [block] = window_rows(self.SIGNAL, noise, 10.0, 16, range(5, 30))
            assert not np.isfinite(block).all()
            with pytest.raises(SampleDataError, match="^frame 5: energy is not finite"):
                block_statistics(block, ref, 5)

    def test_mixed_blocks_are_mixed_frames(self):
        """Blocks of 32 + 11 rows equal alpha * signal + noise of the frames, bit for bit."""
        for signal in (self.SIGNAL, SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5)):
            for snr_db in (7.0, -math.inf):
                alpha = snr_scale(signal.nominal_power, 1.0, snr_db)
                blocks = window_rows(signal, self.NOISE, snr_db, 16, range(60, 103))
                assert [len(b) for b in blocks] == [32, 11]
                frames = [alpha * gen_signal_frame(16, signal, k).samples
                          + gen_noise_frame(16, self.NOISE, k).samples for k in range(60, 103)]
                np.testing.assert_array_equal(np.concatenate(blocks), frames)

    def test_labeled_frames_only_are_mixed(self):
        """Frames the schedule labels present are alpha * signal + noise, the rest noise."""
        labels = np.arange(43) % 5 < 2  # frames 60 + 5j and 61 + 5j, at 1 s a frame
        schedule = OccupancySchedule(5.0, ((0.0, 2.0),))
        for signal in (self.SIGNAL, SignalSpec(kind="bpsk", symbol_rate_divisor=3, seed=5)):
            alpha = snr_scale(signal.nominal_power, 1.0, 7.0)
            windows = list(channel_windows(spec_table([(signal, self.NOISE, schedule, 7.0)]),
                                           16, 1.0, range(60, 103)))
            assert np.concatenate([on for _, _, on in windows]).tolist() == labels.tolist()
            blocks = [rows for _, rows, _ in windows]
            assert [len(b) for b in blocks] == [32, 11]
            frames = [alpha * gen_signal_frame(16, signal, k).samples * on
                      + gen_noise_frame(16, self.NOISE, k).samples
                      for k, on in zip(range(60, 103), labels.tolist())]
            np.testing.assert_array_equal(np.concatenate(blocks), frames)

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            gen_channel_timeline(self.SCHEDULE, self.SIGNAL, self.NOISE, 0.0, 8, 0.0, 1.0)
        with pytest.raises(ValueError):
            gen_channel_timeline(self.SCHEDULE, self.SIGNAL, self.NOISE, 0.0, 8, 1.0, -1.0)
