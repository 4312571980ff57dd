"""Monte Carlo Pd/Pfa measurement, ROC behavior, and duty recovery by the sweep path."""

import math

import numpy as np
import pytest

from scipy.special import gammainc, gammaincc, gammaincinv
from scipy.stats import ncx2

from occuscan import (
    AcfVector,
    ComplexFrame,
    DetectorConfig,
    NoiseSpec,
    OccupancySchedule,
    SignalSpec,
)
from occuscan.detectors import (
    DETECTOR_TABLE,
    acf1_statistic,
    acf_vector,
    block_statistics,
    calibrate_ed_threshold_blocks,
    correlation_distance,
    energy_statistic,
)
from occuscan.evaluate import (
    EVAL_CSV_HEADER,
    decides_present,
    operating_points,
    shared_trial_statistics,
    trial_statistics,
    tune_threshold_for_pfa,
    write_eval_csv,
)
from occuscan.iq import BLOCK_FRAMES
from occuscan.synth import (
    channel_windows,
    frame_count,
    gen_noise_frame,
    gen_signal_frame,
    snr_scale,
)
from conftest import spec_table

SIG = SignalSpec(kind="tone", normalized_freq=0.13, seed=5)
NOISE = NoiseSpec(total_power=1.0, seed=6)


def _config(lambda_ed=1.052, lambda_acf=0.25, gamma=0.6, lags=8):
    ref = acf_vector(gen_signal_frame(1024, SIG, 0), lags)
    return DetectorConfig(lambda_ed, lambda_acf, gamma, lags, ref)


class TestDecidesPresent:
    def test_direction_per_detector(self):
        assert decides_present("ed", 1.1, 1.0)
        assert not decides_present("ed", 1.0, 1.0)
        assert decides_present("acf1", 0.3, 0.25)
        assert decides_present("cdist", 0.1, 0.5)
        assert not decides_present("cdist", 0.5, 0.5)

    def test_vectorized(self):
        out = decides_present("ed", np.array([0.5, 1.5]), 1.0)
        np.testing.assert_array_equal(out, [False, True])


class TestTrialStatistics:
    def test_paired_and_deterministic(self):
        cfg = _config()
        h0a, h1a = trial_statistics("ed", cfg, SIG, NOISE, 10.0, 256, 50)
        h0b, h1b = trial_statistics("ed", cfg, SIG, NOISE, 10.0, 256, 50)
        np.testing.assert_array_equal(h0a, h0b)
        np.testing.assert_array_equal(h1a, h1b)
        # paired: adding signal power raises every trial's energy
        assert np.all(h1a > h0a)

    def test_h0_independent_of_snr(self):
        cfg = _config()
        h0_lo, _ = trial_statistics("ed", cfg, SIG, NOISE, 0.0, 128, 30)
        h0_hi, _ = trial_statistics("ed", cfg, SIG, NOISE, 30.0, 128, 30)
        np.testing.assert_array_equal(h0_lo, h0_hi)

    def test_none_signal_collapses_hypotheses(self):
        cfg = _config()
        h0, h1 = trial_statistics(
            "ed", cfg, SignalSpec(kind="none"), NOISE, -math.inf, 128, 20
        )
        np.testing.assert_array_equal(h0, h1)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            trial_statistics("ed", _config(), SIG, NOISE, 0.0, 128, 0)


def _wilson(hits: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    p = hits / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return center - half, center + half


class TestSharedTrialStatistics:
    @pytest.mark.parametrize("signal", [
        SIG,
        SignalSpec(kind="bpsk", symbol_rate_divisor=4, seed=9),
        SignalSpec(kind="none"),
    ], ids=["tone", "bpsk", "none"])
    def test_columns_equal_trial_statistics(self, signal):
        cfg = _config()
        snrs = [-math.inf, 0.0, 10.0]
        stats = shared_trial_statistics(cfg, signal, NOISE, snrs, 128, range(70))
        assert stats.shape == (1 + len(snrs), 70, 3)
        for det in DETECTOR_TABLE:
            for k, snr_db in enumerate(snrs, 1):
                h0, h1 = trial_statistics(det.name, cfg, signal, NOISE, snr_db, 128, 70)
                np.testing.assert_array_equal(stats[0, :, det.column], h0)
                np.testing.assert_array_equal(stats[k, :, det.column], h1)

    def test_rows_equal_per_frame_statistics(self):
        """Row i is trial i's per-frame statistics, wherever the trial range starts."""
        cfg = _config()
        signal = SignalSpec(kind="bpsk", symbol_rate_divisor=2, seed=3)
        trials = range(40, 110)
        stats = shared_trial_statistics(cfg, signal, NOISE, [3.0], 64, trials)
        alpha = snr_scale(signal.nominal_power, NOISE.total_power, 3.0)
        for row, i in enumerate(trials):
            noise = gen_noise_frame(64, NOISE, i)
            mixed = ComplexFrame(alpha * gen_signal_frame(64, signal, i).samples + noise.samples,
                                 1.0, 1.0)
            for h, frame in enumerate((noise, mixed)):
                expected = [energy_statistic(frame), acf1_statistic(frame),
                            correlation_distance(cfg.reference, acf_vector(frame, 8))]
                np.testing.assert_array_equal(stats[h, row], expected)

    @pytest.mark.parametrize("n,lam", [(16, 1.1), (32, 1.3), (64, 1.1), (256, 1.1)])
    def test_ed_pfa_matches_gamma_tail(self, n, lam):
        """Under H0, N*T_ed/sigma^2 is Gamma(N, 1): pfa = gammaincc(N, N*lam/sigma^2)."""
        noise = NoiseSpec(total_power=2.0, seed=11)
        trials = 4000
        h0 = shared_trial_statistics(_config(), SignalSpec(kind="none"), noise, [], n,
                                     range(trials))[0, :, 0]
        lo, hi = _wilson(int(np.count_nonzero(h0 > lam * 2.0)), trials, z=4.0)
        assert lo <= gammaincc(n, n * lam) <= hi

    @pytest.mark.parametrize("signal", [
        SIG,
        SignalSpec(kind="bpsk", symbol_rate_divisor=4, seed=9),
    ], ids=["tone", "bpsk"])
    def test_ed_pd_matches_noncentral_chi2_tail(self, signal):
        """Under H1 with a constant-envelope signal, 2N*T_ed/sigma^2 is noncentral chi^2 with
        2N degrees of freedom and noncentrality 2N*snr: pd = ncx2.sf(2N*lam/sigma^2, 2N,
        2N*snr)."""
        n, sigma2, trials, snr_dbs = 64, 2.0, 20_000, [-12.0, -8.0]
        noise = NoiseSpec(total_power=sigma2, seed=11)
        stats = shared_trial_statistics(_config(), signal, noise, snr_dbs, n, range(trials))
        for k, snr_db in enumerate(snr_dbs, 1):
            for lam in (2.1, 2.3):
                hits = int(np.count_nonzero(stats[k, :, 0] > lam))
                lo, hi = _wilson(hits, trials, z=4.0)
                pd = ncx2.sf(2 * n * lam / sigma2, 2 * n, 2 * n * 10 ** (snr_db / 10))
                assert lo <= pd <= hi, (snr_db, lam, hits / trials, pd)

    def test_calibrated_ed_threshold_matches_gamma_quantile(self):
        """The calibrated lambda_ed is the noise-only energy's (1 - pfa) quantile, whose
        theory value is sigma^2 * gammaincinv(N, 1 - pfa) / N. Its rank under the Gamma law
        is asymptotically normal, mean 1 - pfa and variance pfa (1 - pfa) / frames."""
        n, sigma2, frames, pfa = 64, 2.0, 10_000, 0.05
        noise = NoiseSpec(total_power=sigma2, seed=11)
        channel = (SignalSpec(kind="none"), noise, OccupancySchedule(1.0), -math.inf)
        lam = calibrate_ed_threshold_blocks(
            (rows for _, rows, _ in channel_windows(spec_table([channel]), n, 1.0,
                                                    range(frames))), pfa)
        z = (gammainc(n, n * lam / sigma2) - (1 - pfa)) / math.sqrt(pfa * (1 - pfa) / frames)
        assert abs(z) <= 4.0, (lam, sigma2 * gammaincinv(n, 1 - pfa) / n, z)

    @pytest.mark.parametrize("n,pfa", [(32, 0.3), (32, 0.1), (64, 0.3), (64, 0.1)])
    def test_acf1_pfa_matches_rayleigh_tail(self, n, pfa):
        """Under H0, P(acf1 > lam) ~ exp(-lam^2 N^2 / (N - 1)) for large N.

        At N >= 32 and these rates the asymptotic error is a few percent of
        pfa, well inside the interval.
        """
        lam = math.sqrt(-math.log(pfa) * (n - 1)) / n
        trials = 4000
        h0 = shared_trial_statistics(_config(lags=4), SignalSpec(kind="none"), NOISE, [], n,
                                     range(trials))[0, :, 1]
        lo, hi = _wilson(int(np.count_nonzero(h0 > lam)), trials, z=4.0)
        assert lo <= math.exp(-lam * lam * n * n / (n - 1)) <= hi


def _points(detector, cfg, snr_db, n, trials, thresholds=None):
    """One detector's (pd, pfa) lists as eval measures them (shared_trial_statistics, then
    operating_points), at its configured threshold unless ``thresholds`` are given."""
    d = next(d for d in DETECTOR_TABLE if d.name == detector)
    stats = shared_trial_statistics(cfg, SIG, NOISE, [snr_db], n, range(trials))
    pd, pfa = operating_points(detector, stats[0, :, d.column], stats[1, :, d.column],
                               [d.threshold(cfg)] if thresholds is None else thresholds)
    return pd.tolist(), pfa.tolist()


class TestMeasurePdPfa:
    def test_calibrated_ed_pfa_in_band(self):
        """lambda_ed from the N=1024 5% quantile should measure pfa near 5%."""
        from occuscan.detectors import calibrate_ed_threshold
        from occuscan.synth import gen_noise_frame

        cal_noise = NoiseSpec(1.0, seed=77)
        lam = calibrate_ed_threshold(
            (gen_noise_frame(1024, cal_noise, k) for k in range(10000)), 0.05
        )
        cfg = _config(lambda_ed=lam)
        [pd], [pfa] = _points("ed", cfg, 10.0, 1024, 10000)
        assert 0.04 <= pfa <= 0.06
        assert pd == 1.0

    def test_high_snr_all_detectors_detect(self):
        cfg = _config()
        for det in ("ed", "acf1", "cdist"):
            [pd], _ = _points(det, cfg, 20.0, 1024, 300)
            assert pd >= 0.999, det

    def test_near_zero_threshold_ed_fires_always(self):
        cfg = _config(lambda_ed=1e-12)
        assert _points("ed", cfg, 0.0, 256, 200) == ([1.0], [1.0])

    def test_near_one_gamma_cdist_fires_always(self):
        # every normalized distance is < 1 - 1e-12 in practice
        cfg = _config(gamma=1.0 - 1e-12)
        assert _points("cdist", cfg, 10.0, 256, 200) == ([1.0], [1.0])

    def test_deterministic(self):
        cfg = _config()
        a = _points("acf1", cfg, 5.0, 512, 100)
        b = _points("acf1", cfg, 5.0, 512, 100)
        assert a == b


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        cfg = _config()
        thresholds = [0.85, 0.95, 1.0, 1.05, 1.15, 1.3]
        pds, pfas = _points("ed", cfg, 5.0, 1024, 400, thresholds)
        # shared trials: exactly non-increasing as the threshold rises
        assert all(a >= b for a, b in zip(pds, pds[1:]))
        assert all(a >= b for a, b in zip(pfas, pfas[1:]))
        assert pfas[0] == 1.0  # threshold far below the noise floor
        assert pfas[-1] == 0.0

    def test_cdist_direction_flips(self):
        cfg = _config()
        pds, pfas = _points("cdist", cfg, 5.0, 512, 200, [0.05, 0.3, 0.6, 0.95])
        # present means distance BELOW threshold: rates rise with threshold
        assert all(a <= b for a, b in zip(pds, pds[1:]))
        assert all(a <= b for a, b in zip(pfas, pfas[1:]))

    def test_rates_are_exact_counts_over_trials(self):
        """Each pd and pfa is its threshold's count of present decisions over the trials."""
        h0, h1 = trial_statistics("ed", _config(), SIG, NOISE, 0.0, 64, 333)
        thresholds = [0.9, 1.0, 1.1, 1.3]
        pd, pfa = operating_points("ed", h0, h1, thresholds)
        assert pd.tolist() == [np.count_nonzero(h1 > t) / 333 for t in thresholds]
        assert pfa.tolist() == [np.count_nonzero(h0 > t) / 333 for t in thresholds]

    def test_cdist_beats_acf1_at_matched_pfa(self):
        """At 5 dB and pfa 0.05 on shared trials, cdist detects at least as often."""
        cfg = _config()
        trials, n, snr = 2000, 1024, 5.0
        h0_a, h1_a = trial_statistics("acf1", cfg, SIG, NOISE, snr, n, trials)
        h0_c, h1_c = trial_statistics("cdist", cfg, SIG, NOISE, snr, n, trials)
        thr_a = tune_threshold_for_pfa("acf1", h0_a, 0.05)
        thr_c = tune_threshold_for_pfa("cdist", h0_c, 0.05)
        pd_a = float(np.mean(decides_present("acf1", h1_a, thr_a)))
        pd_c = float(np.mean(decides_present("cdist", h1_c, thr_c)))
        assert pd_c >= pd_a


class TestTuneThreshold:
    def test_ed_upper_quantile(self):
        h0 = np.arange(1, 101, dtype=float)  # 1..100
        thr = tune_threshold_for_pfa("ed", h0, 0.05)
        assert thr == pytest.approx(np.quantile(h0, 0.95))
        assert np.mean(h0 > thr) <= 0.05

    def test_cdist_lower_quantile(self):
        h0 = np.arange(1, 101, dtype=float)
        thr = tune_threshold_for_pfa("cdist", h0, 0.05)
        assert thr == pytest.approx(np.quantile(h0, 0.05))
        assert np.mean(h0 < thr) <= 0.05

    def test_achieved_pfa_close(self):
        cfg = _config()
        h0, _ = trial_statistics("cdist", cfg, SIG, NOISE, 5.0, 512, 2000)
        thr = tune_threshold_for_pfa("cdist", h0, 0.05)
        pfa = float(np.mean(decides_present("cdist", h0, thr)))
        assert abs(pfa - 0.05) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            tune_threshold_for_pfa("ed", [1.0], 0.0)
        with pytest.raises(ValueError):
            tune_threshold_for_pfa("ed", [], 0.05)


def _channel_stats(schedule, config, snr_db, n, interval, total_s):
    """One channel's block_statistics rows over all its scans, a kernel block per window."""
    windows = channel_windows(spec_table([(SIG, NOISE, schedule, snr_db)]), n, interval,
                              range(frame_count(total_s, interval)))
    return np.concatenate([np.empty((0, 3))] + [
        block_statistics(rows, config.reference, i * BLOCK_FRAMES)
        for i, (_, rows, _) in enumerate(windows)])


def _occupancy(schedule, detector, config, snr_db, n, interval, total_s):
    """Present decisions over all scans of one detector, on the sweep's one path."""
    d = next(d for d in DETECTOR_TABLE if d.name == detector)
    stats = _channel_stats(schedule, config, snr_db, n, interval, total_s)
    return d.decide(stats[:, d.column], d.threshold(config)).mean()


class TestOccupancyRecovery:
    def test_thirty_percent_duty(self):
        sched = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.3),))
        measured = _occupancy(sched, "cdist", _config(gamma=0.6), 10.0, 1024, 0.1, 100.0)
        assert sched.duty_cycle == pytest.approx(0.3)
        assert abs(measured - sched.duty_cycle) <= 0.05

    def test_always_on(self):
        sched = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 1.0),))
        assert _occupancy(sched, "ed", _config(), 20.0, 512, 0.1, 10.0) == 1.0

    def test_always_off_low_threshold_pathology(self):
        # an energy threshold far below the noise floor reports full occupancy
        sched = OccupancySchedule(period_s=1.0)
        assert sched.duty_cycle == 0.0
        assert _occupancy(sched, "ed", _config(lambda_ed=0.5), 10.0, 1024, 0.1, 50.0) == 1.0

    def test_empty_timeline_has_no_scans(self):
        sched = OccupancySchedule(period_s=1.0)
        assert _channel_stats(sched, _config(), 0.0, 64, 1.0, 0.0).shape == (0, 3)


class TestEvalCsv:
    def test_format(self, tmp_path):
        rows = [
            ("ed", "point", 5.0, 1.052, 1000, 0.875, 0.05),
            ("cdist", "roc", 5.0, 0.3, 1000, 0.9, 0.01),
        ]
        p = tmp_path / "eval.csv"
        write_eval_csv(rows, p)
        lines = p.read_text().splitlines()
        assert lines[0] == EVAL_CSV_HEADER
        assert lines[1] == "ed,point,5,1.052,1000,0.875,0.05"
        assert lines[2] == "cdist,roc,5,0.3,1000,0.9,0.01"

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [("acf1", "point", 0.0, 0.25, 64, 0.5, 0.04)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_eval_csv(rows, p1)
        write_eval_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
