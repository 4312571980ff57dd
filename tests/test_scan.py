"""Per-frame scanning, sweep merging, and the CSV record log."""

import csv
import io
import math

import numpy as np
import pytest

from occuscan import (
    AcfVector,
    BandSpec,
    Channel,
    ConfigurationError,
    DetectorConfig,
    NoiseSpec,
    OccupancySchedule,
    RoutingError,
    ScanRecord,
    SignalSpec,
    build_channel_plan,
    builtin_plan,
    gen_channel_timeline,
    run_sweep,
    scan_channel,
    write_records_csv,
)
from occuscan.detectors import DETECTORS
from occuscan import scan as scan_module
from occuscan.scan import (
    PLAN_CSV_HEADER,
    RECORD_CSV_HEADER,
    TRUTH_CSV_HEADER,
    RecordTable,
    frame_table,
    merge_sweep,
    read_record_table,
    read_records_csv,
    record_table,
    scan_blocks,
    write_plan_csv,
    write_record_tables,
    write_truth_columns,
    write_truth_csv,
)
from occuscan.synth import timeline_blocks
from occuscan.errors import CsvParseError
from conftest import make_frame


def _config(lags=8):
    ref = AcfVector(np.array([1.0] + [0.8] * (lags - 1)))
    return DetectorConfig(lambda_ed=1.05, lambda_acf=0.25, gamma=0.6,
                          acf_lags=lags, reference=ref)


def _plan2():
    return build_channel_plan(
        [BandSpec("A", 100.0, 105.0, (5.0,), 2), BandSpec("B", 200.0, 200.0, (1.0,), 1)]
    )


class TestScanChannel:
    CH = Channel("A", 0, 100.0)

    def test_three_records_in_order(self):
        f = make_frame(np.ones(16), freq=100e6, t=3.0)
        recs = scan_channel(f, self.CH, _config())
        assert [r.detector for r in recs] == list(DETECTORS)
        assert all(r.capture_time == 3.0 and r.channel == self.CH for r in recs)

    def test_statistics_and_thresholds(self):
        f = make_frame(np.ones(16), freq=100e6)
        cfg = _config()
        ed, a1, cd = scan_channel(f, self.CH, cfg)
        assert ed.statistic == 1.0 and ed.threshold == cfg.lambda_ed
        assert a1.statistic == 15 / 16 and a1.threshold == cfg.lambda_acf
        assert cd.threshold == cfg.gamma

    def test_decisions_match_rules(self):
        f = make_frame(np.ones(16), freq=100e6)
        ed, a1, cd = scan_channel(f, self.CH, _config())
        assert ed.present == (ed.statistic > 1.05)
        assert a1.present == (a1.statistic > 0.25)
        assert cd.present == (cd.statistic < 0.6)

    def test_zero_energy_degenerate_policy(self):
        f = make_frame(np.zeros(16), freq=100e6)
        ed, a1, cd = scan_channel(f, self.CH, _config())
        assert ed.statistic == 0.0 and not ed.present and not ed.degenerate
        assert a1.statistic == 0.0 and not a1.present and a1.degenerate
        assert cd.statistic == 1.0 and not cd.present and cd.degenerate

    def test_degenerate_sentinels_obey_decision_rules(self):
        # sentinel stats must still satisfy present == rule(statistic)
        f = make_frame(np.zeros(4), freq=100e6)
        for rec in scan_channel(f, self.CH, _config(lags=4)):
            if rec.detector == "ed":
                assert rec.present == (rec.statistic > rec.threshold)
            elif rec.detector == "acf1":
                assert rec.present == (rec.statistic > rec.threshold)
            else:
                assert rec.present == (rec.statistic < rec.threshold)

    def test_frequency_routing_guard(self):
        f = make_frame(np.ones(16), freq=103e6)
        with pytest.raises(RoutingError, match="103"):
            scan_channel(f, self.CH, _config(), freq_tol_mhz=1.0)
        # within tolerance passes
        scan_channel(f, self.CH, _config(), freq_tol_mhz=5.0)


class TestRunSweep:
    def _timelines(self, plan, n_scans=10, snr_db=10.0):
        sched = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.5),))
        sig = SignalSpec(kind="tone", normalized_freq=0.1, seed=1)
        out = {}
        for i, c in enumerate(plan):
            out[c] = gen_channel_timeline(
                sched, sig, NoiseSpec(1.0, seed=100 + i), snr_db,
                64, 0.25, n_scans * 0.25,
                center_freq_hz=c.center_freq_hz,
            )
        return out

    def test_record_and_truth_counts(self):
        plan = _plan2()
        records, truths = run_sweep(self._timelines(plan), _config(), plan)
        assert len(records) == 3 * 10 * 3  # 3 channels x 10 scans x 3 detectors
        assert len(truths) == 3 * 10

    def test_canonical_order(self):
        plan = _plan2()
        records, truths = run_sweep(self._timelines(plan), _config(), plan)
        # (capture time, band position in the plan, channel index, detector position)
        band_pos = {"A": 0, "B": 1}

        def key(r):
            return (r.capture_time, band_pos[r.channel.band], r.channel.index_in_band,
                    DETECTORS.index(r.detector))

        assert [key(r) for r in records] == sorted(key(r) for r in records)
        # first scan cycle: A0, A1, B0 at t=0, three detectors each
        head = [(r.channel.band, r.channel.index_in_band, r.detector) for r in records[:9]]
        assert head == [
            ("A", 0, "ed"), ("A", 0, "acf1"), ("A", 0, "cdist"),
            ("A", 1, "ed"), ("A", 1, "acf1"), ("A", 1, "cdist"),
            ("B", 0, "ed"), ("B", 0, "acf1"), ("B", 0, "cdist"),
        ]

    def test_merge_is_schedule_independent(self):
        """Scanning channels in any order yields the identical sorted log."""
        plan = _plan2()
        timelines = self._timelines(plan)
        records_fwd, truths_fwd = run_sweep(timelines, _config(), plan)
        reordered = dict(reversed(list(timelines.items())))
        records_rev, truths_rev = run_sweep(reordered, _config(), plan)
        assert records_fwd == records_rev
        assert truths_fwd == truths_rev

    def test_rerun_bit_identical(self):
        plan = _plan2()
        r1, t1 = run_sweep(self._timelines(plan), _config(), plan)
        r2, t2 = run_sweep(self._timelines(plan), _config(), plan)
        assert r1 == r2 and t1 == t2

    def test_missing_channel_source(self):
        plan = _plan2()
        timelines = self._timelines(plan)
        del timelines[plan[-1]]
        with pytest.raises(ConfigurationError, match=r"B\[0\]"):
            run_sweep(timelines, _config(), plan)

    def test_empty_plan(self):
        records, truths = run_sweep({}, _config(), [])
        assert records == [] and truths == []

    def test_truth_labels_follow_schedule(self):
        plan = _plan2()
        _, truths = run_sweep(self._timelines(plan), _config(), plan)
        for tr in truths:
            assert tr.present == (tr.capture_time % 1.0 < 0.5)

    def test_builtin_plan_scale(self):
        plan = builtin_plan()
        sched = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.5),))
        sig = SignalSpec(kind="tone", normalized_freq=0.1)
        timelines = {
            c: gen_channel_timeline(
                sched, sig, NoiseSpec(1.0, seed=i), 10.0, 32, 0.5, 1.0,
                center_freq_hz=c.center_freq_hz,
            )
            for i, c in enumerate(plan)
        }
        records, truths = run_sweep(timelines, _config(), plan)
        assert len(records) == 123 * 2 * 3
        assert len(truths) == 123 * 2


class TestRecordCsv:
    def _records(self):
        plan = _plan2()
        sched = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.5),))
        sig = SignalSpec(kind="tone", normalized_freq=0.1, seed=1)
        timelines = {
            c: gen_channel_timeline(
                sched, sig, NoiseSpec(1.0, seed=i), 5.0, 32, 0.5, 2.0,
                center_freq_hz=c.center_freq_hz,
            )
            for i, c in enumerate(plan)
        }
        return run_sweep(timelines, _config(), plan)

    def test_header(self, tmp_path):
        records, _ = self._records()
        p = tmp_path / "records.csv"
        write_records_csv(records, p)
        first = p.read_text().splitlines()[0]
        assert first == RECORD_CSV_HEADER

    def test_round_trip_preserves_decisions(self, tmp_path):
        records, _ = self._records()
        p = tmp_path / "records.csv"
        write_records_csv(records, p)
        back = read_records_csv(p)
        assert len(back) == len(records)
        for orig, rt in zip(records, back):
            assert rt.channel == orig.channel
            assert rt.detector == orig.detector
            assert rt.present == orig.present
            assert rt.statistic == pytest.approx(orig.statistic, rel=1e-8)

    def test_byte_identical_rewrite(self, tmp_path):
        records, _ = self._records()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(records, p1)
        write_records_csv(read_records_csv(p1), p2)
        # formatting is stable under one parse/serialize cycle at %.9g
        assert p1.read_bytes() == p2.read_bytes()

    def test_presence_encoded_as_1_0(self, tmp_path):
        records, _ = self._records()
        p = tmp_path / "records.csv"
        write_records_csv(records, p)
        for line in p.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] in ("0", "1")

    def test_parse_error_cites_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(RECORD_CSV_HEADER + "\n0.000000,A,0,100,ed,nope,1.05,1\n")
        with pytest.raises(CsvParseError, match=":2:"):
            read_records_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,stuff\n")
        with pytest.raises(CsvParseError, match=":1:"):
            read_records_csv(p)

    def test_unknown_detector_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(RECORD_CSV_HEADER + "\n0.000000,A,0,100,matched,0.5,1.05,1\n")
        with pytest.raises(CsvParseError):
            read_records_csv(p)

    def test_truth_csv_header(self, tmp_path):
        _, truths = self._records()
        p = tmp_path / "truth.csv"
        write_truth_csv(truths, p)
        lines = p.read_text().splitlines()
        assert lines[0] == TRUTH_CSV_HEADER
        assert len(lines) == 1 + len(truths)

    def test_plan_csv(self, tmp_path):
        plan = _plan2()
        p = tmp_path / "plan.csv"
        write_plan_csv(plan, p)
        lines = p.read_text().splitlines()
        assert lines[0] == PLAN_CSV_HEADER
        assert lines[1] == "A,0,100"
        assert lines[-1] == "B,0,200"


def _reference_records_csv(records) -> bytes:
    """The record log as the per-record csv.writer loop wrote it: the byte reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_CSV_HEADER.split(","))
    for r in records:
        writer.writerow([f"{r.capture_time:.6f}", r.channel.band, r.channel.index_in_band,
                         f"{r.channel.center_freq_mhz:.9g}", r.detector, f"{r.statistic:.9g}",
                         f"{r.threshold:.9g}", 1 if r.present else 0])
    return buf.getvalue().encode()


def _reference_truth_csv(truths) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRUTH_CSV_HEADER.split(","))
    for tr in truths:
        writer.writerow([f"{tr.capture_time:.6f}", tr.channel.band, tr.channel.index_in_band,
                         f"{tr.channel.center_freq_mhz:.9g}", 1 if tr.present else 0])
    return buf.getvalue().encode()


class TestColumnarSweep:
    """The columnar sweep (timeline blocks -> stats columns -> merge -> writer) against
    run_sweep over ComplexFrame timelines and the per-record csv.writer loop."""

    def _plan(self):
        # bands out of alphabetical order; a band name csv must quote
        return build_channel_plan([
            BandSpec("ZULU", 900.0, 905.0, (5.0,), 2),
            BandSpec("ISM, 433", 433.05, 433.1, (0.025,), 3),
            BandSpec("ALPHA", 150.0, 150.0, (1.0,), 1),
        ])

    def _params(self, plan):
        on = OccupancySchedule(period_s=3.0, on_intervals=((0.0, 1.0), (1.5, 2.25)))
        never = OccupancySchedule(period_s=10.0)
        tone = SignalSpec(kind="tone", normalized_freq=0.21, phase=0.4)
        bpsk = SignalSpec(kind="bpsk", symbol_rate_divisor=3, amplitude=0.5, seed=8)
        specs = [(tone, on, 8.0), (bpsk, on, 4.0), (SignalSpec(kind="none"), on, 8.0),
                 (tone, never, 8.0), (tone, on, -math.inf), (bpsk, on, 12.0)]
        return [(sig, NoiseSpec(2.0, seed=50 + i), sched, snr)
                for i, (sig, sched, snr) in enumerate(specs)]

    def test_rows_equal_run_sweep(self, tmp_path):
        plan, cfg = self._plan(), _config()
        start, interval, total = 1767225600.0, 0.25, 10.0  # 40 frames: blocks of 32 and 8
        params = self._params(plan)
        results = [
            scan_blocks(timeline_blocks(sched, sig, noise, snr, 64, interval, total,
                                        start_time=start), cfg)
            for sig, noise, sched, snr in params
        ]
        times, chan, stats, labels = merge_sweep(plan, results)
        timelines = {
            c: gen_channel_timeline(sched, sig, noise, snr, 64, interval, total,
                                    center_freq_hz=c.center_freq_hz, start_time=start)
            for c, (sig, noise, sched, snr) in zip(plan, params)
        }
        records, truths = run_sweep(timelines, cfg, plan)

        table = frame_table(plan, times, chan, stats, cfg)
        assert len(table.time) == len(records) == 3 * 40 * len(plan)
        for rec, (t, c, d, stat, thr, present) in zip(records, zip(
                table.time.tolist(), table.chan.tolist(), table.det.tolist(),
                table.statistic.tolist(), table.threshold.tolist(), table.present.tolist())):
            assert (t, plan[c], DETECTORS[d], thr, present) == \
                (rec.capture_time, rec.channel, rec.detector, rec.threshold, rec.present)
            assert np.float64(stat).view(np.int64) == np.float64(rec.statistic).view(np.int64)
        assert labels.tolist() == [tr.present for tr in truths]

        write_record_tables([table], tmp_path / "records.csv")
        write_truth_columns(plan, times, chan, labels, tmp_path / "truth.csv")
        assert (tmp_path / "records.csv").read_bytes() == _reference_records_csv(records)
        assert (tmp_path / "truth.csv").read_bytes() == _reference_truth_csv(truths)

    def test_chunked_writer_matches_reference(self, tmp_path, monkeypatch):
        """Tables split over several chunks and several tables write the same bytes."""
        records, _ = TestRecordCsv()._records()
        monkeypatch.setattr(scan_module, "CSV_CHUNK_ROWS", 7)
        table = record_table(records)
        halves = [RecordTable(table.channels, *(col[:20] for col in table[1:])),
                  RecordTable(table.channels, *(col[20:] for col in table[1:]))]
        write_record_tables(halves, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == _reference_records_csv(records)

    def test_read_table_round_trip(self, tmp_path):
        records, _ = TestRecordCsv()._records()
        p = tmp_path / "r.csv"
        write_records_csv(records, p)
        table = read_record_table(p)
        assert [(t, table.channels[c], DETECTORS[d], present) for t, c, d, present in zip(
            table.time.tolist(), table.chan.tolist(), table.det.tolist(),
            table.present.tolist())] == \
            [(r.capture_time, r.channel, r.detector, r.present) for r in read_records_csv(p)]
        assert [(r.capture_time, r.channel, r.detector, r.present) for r in read_records_csv(p)] \
            == [(r.capture_time, r.channel, r.detector, r.present) for r in records]

    @pytest.mark.parametrize("bad_line", [2, 5])
    @pytest.mark.parametrize("row, reason", [
        ("0.000000,A,0,100,ed,nope,1.05,1", "could not convert"),
        ("0.000000,A,0,100,matched,0.5,1.05,1", "unknown detector"),
        ("0.000000,A,0,100,ed,0.5,1.05,yes", "present must be 0 or 1"),
        ("0.000000,A,0,100,ed,0.5,1.05", "not enough values"),
        ("0.000000,A,-1,100,ed,0.5,1.05,1", "index_in_band"),
        ("nan,A,0,100,ed,0.5,1.05,1", "time_unix must be finite"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, bad_line, row, reason):
        good = "1.000000,A,0,100,acf1,0.5,0.25,0"
        lines = [RECORD_CSV_HEADER] + [good] * 5
        lines[bad_line - 1] = row
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError, match=f"bad.csv:{bad_line}: .*{reason}"):
            read_record_table(p)
        with pytest.raises(CsvParseError, match=f"bad.csv:{bad_line}: "):
            read_records_csv(p)
