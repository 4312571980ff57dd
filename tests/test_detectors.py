"""Statistics, decision rules, calibration, and their invariances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occuscan import (
    DETECTOR_TABLE,
    DETECTORS,
    AcfVector,
    DetectorConfig,
    SampleDataError,
    NoiseSpec,
    OccupancySchedule,
    OccuscanError,
    SignalSpec,
    acf,
    acf1_statistic,
    acf_vector,
    block_statistics,
    calibrate_ed_threshold,
    correlation_distance,
    energy_statistic,
    gen_noise_frame,
    gen_signal_frame,
    load_reference,
    save_reference,
)
from occuscan.detectors import (
    DETECTOR_BY_NAME,
    calibrate_reference_blocks,
    decide_block,
    decides_present,
    quantile,
)
from occuscan.iq import BLOCK_FRAMES
from occuscan.synth import channel_windows, noise_rows
from conftest import make_frame, spec_table


def _ref(lags=8):
    return AcfVector(np.array([1.0] + [0.5] * (lags - 1)))


class TestEnergy:
    def test_known_value_exact(self):
        # |1+1j|^2 + |1-1j|^2 + |2|^2 + |2j|^2 = 2+2+4+4 = 12; / 4 = 3
        f = make_frame([1 + 1j, 1 - 1j, 2, 2j])
        assert energy_statistic(f) == 3.0

    def test_zeros(self):
        assert energy_statistic(make_frame(np.zeros(8))) == 0.0

    def test_unit_ones(self):
        assert energy_statistic(make_frame(np.ones(5))) == 1.0

    def test_single_sample(self):
        assert energy_statistic(make_frame([3j])) == 9.0

    def test_decide_strict_inequality(self):
        assert decides_present("ed", 1.1, 1.0)
        assert not decides_present("ed", 0.9, 1.0)
        assert not decides_present("ed", 1.0, 1.0)  # tie resolves absent

    def test_decide_bad_threshold(self):
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                DetectorConfig(lam, 0.25, 0.6, 8, _ref())

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
    def test_quadratic_equivariance(self, seed, scale):
        f = gen_noise_frame(64, NoiseSpec(1.0, seed=seed), 0)
        scaled = make_frame(scale * f.samples)
        assert energy_statistic(scaled) == pytest.approx(
            scale * scale * energy_statistic(f), rel=1e-12
        )


class TestAcf:
    def test_lag0_is_total_energy(self):
        f = make_frame([1 + 1j, 2])
        a0 = acf(f, 0)
        assert a0 == 6 + 0j
        assert a0.imag == 0.0

    def test_ones_lag1_exact(self):
        f = make_frame(np.ones(4))
        assert acf(f, 1) == 3 + 0j

    def test_alternating_lag1(self):
        f = make_frame([1.0, -1.0, 1.0, -1.0])
        assert acf(f, 1) == -3 + 0j

    def test_linear_not_circular(self):
        # circular ACF of ones(4) at lag 1 would be 4; linear drops one term
        f = make_frame(np.ones(4))
        assert acf(f, 1) == 3 + 0j
        assert acf(f, 3) == 1 + 0j

    def test_conjugation_side(self):
        # x = [1, j]: sum x(m) conj(x(m-1)) = j * conj(1) = j
        f = make_frame([1.0, 1j])
        assert acf(f, 1) == 1j

    def test_lag_out_of_range(self):
        f = make_frame(np.ones(4))
        with pytest.raises(ValueError):
            acf(f, 4)
        with pytest.raises(ValueError):
            acf(f, -1)


class TestAcf1:
    def test_ones_exact(self):
        assert acf1_statistic(make_frame(np.ones(4))) == 0.75

    def test_tone_closed_form(self):
        n = 256
        f = gen_signal_frame(n, SignalSpec(kind="tone", normalized_freq=0.13), 0)
        assert acf1_statistic(f) == pytest.approx((n - 1) / n, rel=1e-12)

    def test_single_sample_is_zero(self):
        assert acf1_statistic(make_frame([5.0])) == 0.0

    def test_zero_frame_degenerate(self):
        with pytest.raises(OccuscanError, match="^zero-energy frame: normalized ACF undefined$"):
            acf1_statistic(make_frame(np.zeros(8)))

    def test_noise_stays_low(self):
        spec = NoiseSpec(1.0, seed=17)
        vals = [acf1_statistic(gen_noise_frame(1024, spec, k)) for k in range(1000)]
        # E|acf1| for white noise at N=1024 is about 0.028; generous ceiling
        assert np.mean(vals) < 0.0625
        assert max(vals) < 0.2

    def test_bounded_by_one(self):
        f = make_frame([1.0, 1.0])
        assert 0.0 <= acf1_statistic(f) <= 1.0

    def test_decide(self):
        assert decides_present("acf1", 0.3, 0.25)
        assert not decides_present("acf1", 0.25, 0.25)
        with pytest.raises(ValueError):
            DetectorConfig(1.05, 1.0, 0.6, 8, _ref())

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-6, 1e6),
        phase=st.floats(0.0, 2 * math.pi),
    )
    def test_scale_and_phase_invariance(self, seed, scale, phase):
        f = gen_noise_frame(128, NoiseSpec(1.0, seed=seed), 0)
        base = acf1_statistic(f)
        rotated = make_frame(scale * np.exp(1j * phase) * f.samples)
        assert acf1_statistic(rotated) == pytest.approx(base, rel=1e-12)


class TestAcfVector:
    def test_ones_exact(self):
        v = acf_vector(make_frame(np.ones(4)), 3)
        np.testing.assert_array_equal(v.values, [1.0, 0.75, 0.5])

    def test_tone_closed_form(self):
        n = 512
        f = gen_signal_frame(n, SignalSpec(kind="tone", normalized_freq=0.21), 0)
        v = acf_vector(f, 4)
        expected = [1.0, (n - 1) / n, (n - 2) / n, (n - 3) / n]
        np.testing.assert_allclose(v.values, expected, rtol=1e-12)

    def test_anchor_is_exactly_one(self):
        f = gen_noise_frame(64, NoiseSpec(1.0, seed=1), 0)
        assert acf_vector(f, 8).values[0] == 1.0

    def test_lags_bounds(self):
        f = make_frame(np.ones(4))
        assert len(acf_vector(f, 4)) == 4
        with pytest.raises(ValueError):
            acf_vector(f, 1)
        with pytest.raises(ValueError):
            acf_vector(f, 5)

    def test_zero_frame_degenerate(self):
        with pytest.raises(OccuscanError, match="^zero-energy frame: normalized ACF undefined$"):
            acf_vector(make_frame(np.zeros(8)), 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcfVector(np.array([1.0]))
        with pytest.raises(ValueError):
            AcfVector(np.array([0.9, 0.5]))
        with pytest.raises(ValueError):
            AcfVector(np.array([1.0, 1.5]))
        with pytest.raises(ValueError):
            AcfVector(np.array([1.0, -0.1]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                AcfVector(np.array([1.0, bad]))

    def test_read_only_and_copied(self):
        src = np.array([1.0, 0.5])
        v = AcfVector(src)
        src[1] = 0.9
        assert v.values[1] == 0.5
        with pytest.raises((ValueError, RuntimeError)):
            v.values[1] = 0.1

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-6, 1e6),
        phase=st.floats(0.0, 2 * math.pi),
    )
    def test_scale_and_phase_invariance(self, seed, scale, phase):
        f = gen_noise_frame(64, NoiseSpec(1.0, seed=seed), 0)
        base = acf_vector(f, 8).values
        rotated = make_frame(scale * np.exp(1j * phase) * f.samples)
        np.testing.assert_allclose(acf_vector(rotated, 8).values, base, rtol=1e-12)


class TestCalibrateReference:
    def test_single_frame_is_its_own_vector(self):
        f = gen_signal_frame(128, SignalSpec(kind="tone", normalized_freq=0.1), 0)
        ref = calibrate_reference_blocks([f.samples[None, :]], 8)
        np.testing.assert_array_equal(ref.values, acf_vector(f, 8).values)

    def test_repeated_frame_idempotent(self):
        f = gen_signal_frame(128, SignalSpec(kind="tone", normalized_freq=0.1), 0)
        ref1 = calibrate_reference_blocks([f.samples[None, :]], 8)
        ref3 = calibrate_reference_blocks([np.stack([f.samples] * 2), f.samples[None, :]], 8)
        np.testing.assert_allclose(ref3.values, ref1.values, atol=1e-15)

    def test_high_snr_training_close_to_clean(self):
        sig = SignalSpec(kind="tone", normalized_freq=0.13)
        noise = NoiseSpec(total_power=1.0, seed=23)
        always_on = OccupancySchedule(1.0, ((0.0, 1.0),))
        windows = channel_windows(spec_table([(sig, noise, always_on, 20.0)]), 1024, 1.0,
                                  range(100))
        ref = calibrate_reference_blocks((rows for _, rows, _ in windows), 8)
        clean = acf_vector(gen_signal_frame(1024, sig, 0), 8)
        np.testing.assert_allclose(ref.values, clean.values, atol=0.05)

    def test_empty_training_rejected(self):
        with pytest.raises(OccuscanError, match="needs at least 1 training frame"):
            calibrate_reference_blocks([], 8)

    def test_zero_energy_training_frame_rejected(self):
        f = gen_signal_frame(128, SignalSpec(kind="tone", normalized_freq=0.1), 0)
        blocks = [f.samples[None, :], np.stack([f.samples, np.zeros(128)])]
        with pytest.raises(OccuscanError, match="zero-energy frame"):
            calibrate_reference_blocks(blocks, 8)


class TestCorrelationDistance:
    def test_identical_vectors(self):
        v = AcfVector(np.array([1.0, 0.5, 0.25]))
        assert correlation_distance(v, v) == 0.0

    def test_known_value(self):
        a = AcfVector(np.array([1.0, 1.0, 1.0, 1.0]))
        b = AcfVector(np.array([1.0, 0.0, 0.0, 0.0]))
        assert correlation_distance(a, b) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_raw_is_sqrt_l_times_normalized(self):
        a = AcfVector(np.array([1.0, 0.9, 0.3, 0.1]))
        b = AcfVector(np.array([1.0, 0.2, 0.8, 0.4]))
        raw = float(np.linalg.norm(a.values - b.values))
        assert 2.0 * correlation_distance(a, b) == pytest.approx(raw, rel=1e-15)

    def test_length_mismatch(self):
        a = AcfVector(np.array([1.0, 0.5]))
        b = AcfVector(np.array([1.0, 0.5, 0.2]))
        with pytest.raises(ValueError):
            correlation_distance(a, b)

    def test_decide_small_distance_is_present(self):
        assert decides_present("cdist", 0.1, 0.5)
        assert not decides_present("cdist", 0.9, 0.5)
        assert not decides_present("cdist", 0.5, 0.5)  # tie resolves absent
        with pytest.raises(ValueError):
            DetectorConfig(1.05, 0.25, 1.0, 8, _ref())

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15),
        data2=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15),
    )
    def test_bounded_unit_interval(self, data, data2):
        n = min(len(data), len(data2))
        a = AcfVector(np.array([1.0] + data[:n]))
        b = AcfVector(np.array([1.0] + data2[:n]))
        d = correlation_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == correlation_distance(b, a)

    def test_separation_noise_vs_tone(self):
        """Noise frames sit far from a tone reference; signal frames sit close."""
        sig = SignalSpec(kind="tone", normalized_freq=0.13)
        ref = acf_vector(gen_signal_frame(1024, sig, 0), 8)
        noise = NoiseSpec(1.0, seed=31)
        alpha = math.sqrt(10.0)  # 10 dB over unit powers

        noise_d = []
        signal_d = []
        for k in range(200):
            w = gen_noise_frame(1024, noise, k)
            noise_d.append(correlation_distance(ref, acf_vector(w, 8)))
            s = gen_signal_frame(1024, sig, k)
            mixed = make_frame(alpha * s.samples + w.samples)
            signal_d.append(correlation_distance(ref, acf_vector(mixed, 8)))
        assert min(noise_d) > 0.6
        assert max(signal_d) < 0.3


class TestEdCalibration:
    def test_threshold_range_at_n1024(self):
        spec = NoiseSpec(1.0, seed=41)
        frames = (gen_noise_frame(1024, spec, k) for k in range(10000))
        lam = calibrate_ed_threshold(frames, 0.05)
        assert 1.04 <= lam <= 1.06

    def test_against_gamma_quantile(self):
        # T is Gamma(N, 1/N) for unit-power complex Gaussian noise
        from scipy import stats

        spec = NoiseSpec(1.0, seed=42)
        frames = (gen_noise_frame(1024, spec, k) for k in range(10000))
        lam = calibrate_ed_threshold(frames, 0.05)
        exact = stats.gamma.ppf(0.95, a=1024, scale=1.0 / 1024)
        assert lam == pytest.approx(exact, abs=0.01)

    def test_constant_statistics(self):
        frames = [make_frame(np.ones(4)) for _ in range(100)]
        assert calibrate_ed_threshold(frames, 0.05) == 1.0

    def test_two_level_median(self):
        lo = [make_frame(np.full(4, math.sqrt(0.9))) for _ in range(50)]
        hi = [make_frame(np.full(4, math.sqrt(1.1))) for _ in range(50)]
        lam = calibrate_ed_threshold(lo + hi, 0.5)
        assert lam == pytest.approx(1.0, rel=1e-12)

    def test_too_few_frames(self):
        frames = [make_frame(np.ones(4)) for _ in range(99)]
        with pytest.raises(OccuscanError, match=">= 100 noise frames, got 99$"):
            calibrate_ed_threshold(frames, 0.05)

    def test_bad_pfa(self):
        frames = [make_frame(np.ones(4)) for _ in range(100)]
        with pytest.raises(ValueError):
            calibrate_ed_threshold(frames, 0.0)


class TestQuantile:
    """detectors.quantile against the installed numpy's np.quantile, whose default method
    it reproduces without loading numpy.ma."""

    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, math.inf])),
                        min_size=1, max_size=300),
        q=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.05, 0.5, 0.95, 0.999])),
    )
    @example(values=[3.0, 1.0, 2.0, 4.0], q=0.5)  # 2.5
    @example(values=[5.0], q=0.95)  # the index reaches n - 1
    @example(values=[-0.0, -0.0], q=1.0)  # numpy gives +0.0 here
    @example(values=[1.0, math.nan, 2.0], q=0.5)  # NaN
    def test_bit_for_bit_np_quantile(self, values, q):
        x = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):  # b - a of huge or infinite values
            expected = np.float64(np.quantile(x, q))
        assert np.float64(quantile(x, q)).tobytes() == expected.tobytes()
        assert x.tobytes() == np.array(values).tobytes()  # the input is not reordered


class TestDetectorConfig:
    def _ref(self, lags=8):
        return AcfVector(np.array([1.0] + [0.5] * (lags - 1)))

    def test_valid(self):
        cfg = DetectorConfig(1.05, 0.25, 0.6, 8, self._ref())
        assert cfg.acf_lags == 8

    def test_reference_length_must_match(self):
        with pytest.raises(ValueError):
            DetectorConfig(1.05, 0.25, 0.6, 4, self._ref(8))

    def test_threshold_ranges(self):
        with pytest.raises(ValueError):
            DetectorConfig(0.0, 0.25, 0.6, 8, self._ref())
        with pytest.raises(ValueError):
            DetectorConfig(1.0, 1.0, 0.6, 8, self._ref())
        with pytest.raises(ValueError):
            DetectorConfig(1.0, 0.25, 0.0, 8, self._ref())
        with pytest.raises(ValueError):
            DetectorConfig(1.0, 0.25, 0.6, 1, AcfVector(np.array([1.0, 0.5])))


class TestReferenceFile:
    def test_round_trip_exact(self, tmp_path):
        f = gen_noise_frame(64, NoiseSpec(1.0, seed=3), 0)
        ref = acf_vector(f, 8)
        p = tmp_path / "ref.txt"
        save_reference(ref, p)
        back = load_reference(p)
        np.testing.assert_array_equal(back.values, ref.values)

    def test_file_shape(self, tmp_path):
        ref = AcfVector(np.array([1.0, 0.5, 0.25]))
        p = tmp_path / "ref.txt"
        save_reference(ref, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "lags=3"
        assert lines[1] == "1.0"
        assert len(lines) == 4

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ref.txt"
        p.write_text("wrong=3\n1.0\n0.5\n0.2\n")
        with pytest.raises(OccuscanError, match="first line must be lags=<L>$"):
            load_reference(p)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "ref.txt"
        p.write_text("lags=3\n1.0\n0.5\n")
        with pytest.raises(OccuscanError, match="expected 3 values, found 2$"):
            load_reference(p)

    def test_junk_value(self, tmp_path):
        p = tmp_path / "ref.txt"
        p.write_text("lags=2\n1.0\npotato\n")
        with pytest.raises(OccuscanError, match="could not convert string to float: 'potato'$"):
            load_reference(p)

    def test_nan_value(self, tmp_path):
        p = tmp_path / "ref.txt"
        p.write_text("lags=3\n1.0\nnan\n0.5\n")
        with pytest.raises(OccuscanError, match="finite"):
            load_reference(p)


def _per_frame_oracle(x, reference):
    """(ed, acf1, cdist) by the original one-frame formulas: np.vdot / np.dot per lag."""
    e0 = float(np.vdot(x, x).real)
    ed = e0 / x.size
    if ed == 0.0:
        return ed, 0.0, 1.0
    v = np.empty(reference.size)
    v[0] = 1.0
    for lag in range(1, reference.size):
        v[lag] = min(abs(complex(np.dot(x[lag:], np.conj(x[:-lag])))) / e0, 1.0)
    diff = reference - v
    return ed, float(v[1]), float(np.sqrt(np.mean(diff * diff)))


class TestBlockKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        frames=st.integers(1, 33),
        lags=st.integers(2, 8),
        extra=st.integers(0, 1100),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        dead=st.sets(st.integers(0, 32), max_size=4),
        stride=st.integers(1, 3),
    )
    @example(frames=32, lags=8, extra=1016, log_scale=0.0, seed=0, dead=set(), stride=2)
    def test_matches_per_frame_oracle(self, frames, lags, extra, log_scale, seed, dead, stride):
        # bit for bit, on contiguous rows and on strided (non-contiguous) ones
        n = lags + extra
        rng = np.random.default_rng(seed)
        shape = (frames, n * stride)
        block = 10.0**log_scale * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )[:, ::stride]
        block[[i for i in dead if i < frames]] = 0.0
        reference = AcfVector(np.concatenate([[1.0], rng.uniform(0.0, 1.0, lags - 1)]))
        stats = block_statistics(block, reference)
        want = np.array([_per_frame_oracle(x, reference.values) for x in block])
        np.testing.assert_array_equal(stats, want, strict=True)

        config = DetectorConfig(1.0, 0.25, 0.6, lags, reference)
        present = decide_block(stats, config)
        assert not present[[i for i in dead if i < frames]].any()

    def test_ties_decide_absent(self):
        f = gen_signal_frame(64, SignalSpec(kind="tone", normalized_freq=0.1), 0)
        noise = gen_noise_frame(64, NoiseSpec(1.0, seed=5), 0)
        reference = acf_vector(f, 8)
        stats = block_statistics(np.stack([noise.samples, 0.3 * f.samples]), reference)
        ed, acf1, cdist = stats[0]
        config = DetectorConfig(ed, acf1, cdist, 8, reference)
        present = decide_block(stats, config)
        np.testing.assert_array_equal(present[0], [False, False, False])
        for d in DETECTOR_TABLE:
            assert not d.decide(stats[0, d.column], d.threshold(config))

    def test_table_matches_config_fields(self):
        config = DetectorConfig(1.05, 0.25, 0.6, 8, _ref())
        assert [d.name for d in DETECTOR_TABLE] == list(DETECTORS)
        assert [d.threshold(config) for d in DETECTOR_TABLE] == [1.05, 0.25, 0.6]
        assert [d.column for d in DETECTOR_TABLE] == [0, 1, 2]

    @pytest.mark.parametrize("start", [0, 64])
    def test_overflowing_energy_names_the_frame(self, start):
        # every sample is finite, but frame 3's power sum is not
        block = np.ones((5, 16), dtype=np.complex128)
        block[3] = 1.0e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleDataError, match=f"^frame {start + 3}: energy is not finite"):
                block_statistics(block, _ref(8), start)
            with pytest.raises(SampleDataError, match="^frame 23: "):
                calibrate_ed_threshold([make_frame(r) for r in np.ones((20, 16))]
                                       + [make_frame(r) for r in block], 0.05)
            with pytest.raises(SampleDataError, match="^frame 3: "):
                calibrate_reference_blocks([block], 8)
            with pytest.raises(SampleDataError, match="^frame 0: "):
                energy_statistic(make_frame(block[3]))

    def test_lags_longer_than_frame_rejected(self):
        with pytest.raises(ValueError):
            block_statistics(np.ones((2, 4), dtype=np.complex128), _ref(8))

    def test_lags_range_message_states_the_checked_range(self):
        # the kernel takes 1 lag (energy alone) up to the frame length
        with pytest.raises(ValueError, match=r"^lags must lie in \[1, 4\], got 8$"):
            block_statistics(np.ones((2, 4), dtype=np.complex128), _ref(8))
        assert block_statistics(np.ones((2, 4), dtype=np.complex128), _ref(4)).shape == (2, 3)
        assert energy_statistic(make_frame([2.0])) == 4.0  # one sample, one lag

    def test_kernel_ed_column_is_the_per_frame_energy(self):
        """calibrate tunes lambda_ed from the kernel's ed column: it holds each frame's
        energy_statistic bits, so the threshold is calibrate_ed_threshold's."""
        rows = noise_rows(64, NoiseSpec(1.0, seed=9), range(2016))
        ed = np.concatenate([block_statistics(rows[i:i + BLOCK_FRAMES], _ref())[:, 0]
                             for i in range(0, len(rows), BLOCK_FRAMES)])
        frames = [make_frame(r) for r in rows]
        assert ed.tolist() == [energy_statistic(f) for f in frames]
        assert DETECTOR_BY_NAME["ed"].tune(ed, 0.05) == calibrate_ed_threshold(frames, 0.05)
