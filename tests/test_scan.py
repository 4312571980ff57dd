"""Per-frame scanning, the time-major sweep, and the CSV record log."""

import csv
import io
import math

import numpy as np
import pytest

from occuscan import (
    AcfVector,
    BandSpec,
    Channel,
    DetectorConfig,
    NoiseSpec,
    OccupancySchedule,
    OccuscanError,
    SignalSpec,
    build_channel_plan,
    builtin_plan,
    gen_channel_timeline,
    scan_channel,
)
from occuscan.detector_table import DETECTORS
from occuscan.detectors import block_statistics
from occuscan import scan as scan_module
from occuscan.cli import RUN_CHANNELS, _sweep_blocks
from occuscan.scan import (
    PLAN_CSV_HEADER,
    RECORD_CSV_HEADER,
    TRUTH_CSV_HEADER,
    channel_fields,
    read_records,
    write_plan_csv,
    write_records,
)
from conftest import (make_frame, read_record_table, record_table, spec_table,
                      write_record_tables)


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
        assert ed.statistic == 0.0 and not ed.present
        assert a1.statistic == 0.0 and not a1.present
        assert cd.statistic == 1.0 and not cd.present

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
        with pytest.raises(OccuscanError, match="103"):
            scan_channel(f, self.CH, _config(), freq_tol_mhz=1.0)
        # within tolerance passes
        scan_channel(f, self.CH, _config(), freq_tol_mhz=5.0)

    def test_nan_tolerance_rejected(self):
        f = make_frame(np.ones(16), freq=915e6)
        with pytest.raises(OccuscanError, match="915"):
            scan_channel(f, Channel("x", 0, 2412.0), _config(), freq_tol_mhz=math.nan)


def _sweep(plan, n_scans=10, snr_db=10.0, n=64, interval=0.25, workers=1):
    """The sweep of a plan, noise seed 100 + i on plan[i], as (times, chan, stats, labels)."""
    sched = OccupancySchedule(period_s=1.0, on_intervals=((0.0, 0.5),))
    sig = SignalSpec(kind="tone", normalized_freq=0.1, seed=1)
    table = spec_table([(sig, NoiseSpec(1.0, seed=100 + i), sched, snr_db)
                          for i in range(len(plan))])
    return _flat(_sweep_blocks(plan, table, _config(), n, interval, n_scans, 0.0, workers))


def _flat(blocks):
    """Frame-major (times, stats, labels) blocks as (times, chan, stats, labels) columns with
    one row a (frame, channel) pair, in block order."""
    empty = (np.empty(0), np.empty(0, np.intp), np.empty((0, 3)), np.empty(0, bool))
    rows = [(np.repeat(t, s.shape[1]), np.tile(np.arange(s.shape[1]), len(t)), s.reshape(-1, 3),
             labels.ravel()) for t, s, labels in blocks]
    return tuple(np.concatenate(col) for col in zip(empty, *rows))


def _frame_major(channels, times, stats, *labels):
    """``_flat``'s rows of ``channels`` as one frame-major block."""
    c = len(channels)
    return (times[::c], stats.reshape(-1, c, 3), *(col.reshape(-1, c) for col in labels))


def _rows(table):
    """(time, channel, detector, statistic, threshold, present) of each record of a table."""
    return [(t, table.channels[c], DETECTORS[d], s, thr, p) for t, c, d, s, thr, p in zip(
        table.time.tolist(), table.chan.tolist(), table.det.tolist(),
        table.statistic.tolist(), table.threshold.tolist(), table.present.tolist())]


class TestRunSweep:
    def test_record_and_truth_counts(self):
        plan = _plan2()
        times, chan, stats, labels = _sweep(plan)
        assert stats.shape == (3 * 10, 3)  # 3 channels x 10 scans, 3 detectors
        assert len(times) == len(chan) == len(labels) == 3 * 10

    def test_canonical_order(self):
        plan = _plan2()
        times, chan, stats, _ = _sweep(plan)
        rows = _rows(record_table(plan, times, chan, stats, _config()))
        # (capture time, band position in the plan, channel index, detector position)
        band_pos = {"A": 0, "B": 1}
        keys = [(t, band_pos[c.band], c.index_in_band, DETECTORS.index(d))
                for t, c, d, *_ in rows]
        assert keys == sorted(keys)
        # first scan cycle: A0, A1, B0 at t=0, three detectors each
        assert [(c.band, c.index_in_band, d) for _, c, d, *_ in rows[:9]] == [
            ("A", 0, "ed"), ("A", 0, "acf1"), ("A", 0, "cdist"),
            ("A", 1, "ed"), ("A", 1, "acf1"), ("A", 1, "cdist"),
            ("B", 0, "ed"), ("B", 0, "acf1"), ("B", 0, "cdist"),
        ]

    def test_sweep_is_schedule_independent(self):
        """Windows of two channel runs scanned on any number of workers give the identical log."""
        plan = builtin_plan()[:RUN_CHANNELS + 8]
        one = _sweep(plan, n_scans=40, n=16)
        for workers in (2, 3):
            for a, b in zip(one, _sweep(plan, n_scans=40, n=16, workers=workers)):
                assert a.tobytes() == b.tobytes()

    def test_rerun_bit_identical(self):
        plan = _plan2()
        for a, b in zip(_sweep(plan), _sweep(plan)):
            assert a.tobytes() == b.tobytes()

    def test_empty_plan(self):
        times, chan, stats, labels = _sweep([])
        assert len(times) == len(chan) == len(stats) == len(labels) == 0
        assert stats.shape == (0, 3)

    def test_truth_labels_follow_schedule(self):
        times, _, _, labels = _sweep(_plan2())
        assert labels.tolist() == (times % 1.0 < 0.5).tolist()

    def test_builtin_plan_scale(self):
        plan = builtin_plan()
        times, chan, stats, labels = _sweep(plan, n_scans=2, n=32, interval=0.5)
        assert stats.shape == (123 * 2, 3)
        assert len(labels) == 123 * 2
        assert np.bincount(chan).tolist() == [2] * 123


class TestRecordCsv:
    def _records(self, path):
        """Write the sweep of _plan2 to path.

        Returns its (record table, (plan, times, chan, labels)).
        """
        plan = _plan2()
        times, chan, stats, labels = _sweep(plan, n_scans=4, snr_db=5.0, n=32, interval=0.5)
        write_records(channel_fields(plan), [_frame_major(plan, times, stats)], _config(), path)
        return record_table(plan, times, chan, stats, _config()), (plan, times, chan, labels)

    def test_header(self, tmp_path):
        p = tmp_path / "records.csv"
        self._records(p)
        first = p.read_text().splitlines()[0]
        assert first == RECORD_CSV_HEADER

    def test_round_trip_preserves_decisions(self, tmp_path):
        p = tmp_path / "records.csv"
        table, _ = self._records(p)
        back = _rows(read_record_table(p))
        assert len(back) == len(table.time)
        for orig, rt in zip(_rows(table), back):
            assert rt[1:3] == orig[1:3]  # channel, detector
            assert rt[5] == orig[5]  # present
            assert rt[3] == pytest.approx(orig[3], rel=1e-8)

    def test_byte_identical_rewrite(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self._records(p1)
        write_record_tables([read_record_table(p1)], p2)
        # formatting is stable under one parse/serialize cycle at %.9g
        assert p1.read_bytes() == p2.read_bytes()

    def test_presence_encoded_as_1_0(self, tmp_path):
        p = tmp_path / "records.csv"
        self._records(p)
        for line in p.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] in ("0", "1")

    def test_parse_error_cites_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(RECORD_CSV_HEADER + "\n0.000000,A,0,100,ed,nope,1.05,1\n")
        with pytest.raises(OccuscanError, match=":2:"):
            list(read_records(p, []))

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,stuff\n")
        with pytest.raises(OccuscanError, match=":1:"):
            list(read_records(p, []))

    def test_no_header_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_bytes(b"")
        with pytest.raises(OccuscanError, match=r"empty\.csv:1: no header line$"):
            list(read_records(p, []))

    def test_unknown_detector_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(RECORD_CSV_HEADER + "\n0.000000,A,0,100,matched,0.5,1.05,1\n")
        with pytest.raises(OccuscanError, match=r"bad\.csv:2: unknown detector 'matched'$"):
            list(read_records(p, []))

    def test_truth_csv_header(self, tmp_path):
        plan = _plan2()
        times, chan, stats, labels = _sweep(plan, n_scans=4, snr_db=5.0, n=32, interval=0.5)
        p = tmp_path / "truth.csv"
        write_records(channel_fields(plan), [_frame_major(plan, times, stats, labels)], _config(),
                      tmp_path / "records.csv", p)
        lines = p.read_text().splitlines()
        assert lines[0] == TRUTH_CSV_HEADER
        assert len(lines) == 1 + len(times)

    def test_plan_csv(self, tmp_path):
        plan = _plan2()
        p = tmp_path / "plan.csv"
        write_plan_csv(channel_fields(plan), p)
        lines = p.read_text().splitlines()
        assert lines[0] == PLAN_CSV_HEADER
        assert lines[1] == "A,0,100"
        assert lines[-1] == "B,0,200"

    def test_channel_fields_equal_a_writer_per_channel(self):
        """The one reused writer quotes each row as a fresh csv.writer would, with nothing
        left over from the row before: a comma, a quote and a newline in band names."""
        channels = [Channel("ISM, 433", 0, 433.05), Channel('say "hi"', 1, 100.0),
                    Channel("two\nlines", 2, 1e-7), Channel("plain", 3, 2400.5),
                    Channel("", 4, 5.0)]
        fields = []
        for c in channels:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(
                [c.band, c.index_in_band, f"{c.center_freq_mhz:.9g}", ""])
            fields.append(buf.getvalue()[:-1])
        assert channel_fields(channels) == fields
        assert fields[:3] == ['"ISM, 433",0,433.05,', '"say ""hi""",1,100,',
                              '"two\nlines",2,1e-07,']


class TestWriteRecords:
    """write_records on frame-major blocks against the per-record reference renderer
    (conftest.write_record_tables) and the per-record truth csv.writer loop."""

    CHANNELS = [Channel("A", 0, 100.0), Channel("ISM, 433", 1, 433.075),
                Channel('say "hi"', 0, 2412.0)]

    def _channels(self, case):
        if case == "wide block":  # more channels than one records chunk holds
            return self.CHANNELS + [Channel("W", i, 1000.0 + 0.25 * i) for i in range(397)]
        if case == "one channel":  # analyze's block: one channel, C = 1
            return [Channel("recording", 0, 100.0)]
        return self.CHANNELS

    def _columns(self, case, channels, cfg):
        """(times, stats, labels) of a case's frames: times (F), stats (F x C x 3) and labels
        (F x C) for the C channels."""
        rng = np.random.default_rng(7)
        n = {"quoted band": 70, "chunk boundary": 2800, "zero energy": 40, "ties": 40,
             "no frames": 0, "wide block": 3, "one channel": 700}[case]
        times = 1767225600.0 + 0.25 * np.arange(n) + rng.uniform(0, 1e-3, n)
        shape = (n, len(channels), 3)
        # statistics over many decades, so %.9g writes both fixed and exponent forms
        stats = rng.uniform(0, 2, shape) * 10.0 ** rng.integers(-12, 12, shape)
        rows = stats.reshape(-1, 3)  # a view: one row a (frame, channel) pair
        if case == "zero energy":  # every third row is dead: the sentinels acf1 0, cdist 1
            rows[::3] = block_statistics(np.zeros((len(rows[::3]), 64), complex), cfg.reference)
        if case == "ties":  # every other row sits on all three thresholds: absent
            rows[::2] = [cfg.lambda_ed, cfg.lambda_acf, cfg.gamma]
        return times, stats, rng.random(shape[:2]) < 0.5

    @pytest.mark.parametrize("case, block_frames", [
        ("quoted band", 32), ("chunk boundary", 2800), ("zero energy", 32), ("ties", 7),
        ("no frames", 32), ("wide block", 3), ("one channel", 32),
    ])
    def test_bytes_equal_reference(self, tmp_path, case, block_frames):
        cfg, channels = _config(), self._channels(case)
        times, stats, labels = self._columns(case, channels, cfg)
        if case == "chunk boundary":
            assert len(times) > scan_module.CSV_CHUNK_ROWS // 3
        if case == "wide block":  # one block, each of whose frames spans two chunks
            assert len(channels) > scan_module.CSV_CHUNK_ROWS // 3 and block_frames == len(times)
        blocks = [(times[i:i + block_frames], stats[i:i + block_frames],
                   labels[i:i + block_frames]) for i in range(0, len(times), block_frames)]
        write_records(channel_fields(channels), blocks, cfg, tmp_path / "records.csv",
                      tmp_path / "truth.csv")
        row_times = np.repeat(times, len(channels))
        chan = np.tile(np.arange(len(channels)), len(times))
        write_record_tables([record_table(channels, row_times, chan, stats.reshape(-1, 3), cfg)],
                            tmp_path / "reference.csv")
        written = (tmp_path / "records.csv").read_text()
        assert written == (tmp_path / "reference.csv").read_text()
        assert (tmp_path / "truth.csv").read_bytes() == _reference_truth_csv(zip(
            row_times.tolist(), [channels[c] for c in chan.tolist()], labels.ravel().tolist()))
        lines = written.splitlines()
        assert len(lines) == 1 + 3 * len(row_times)
        if case == "quoted band":
            assert any(',"ISM, 433",1,433.075,' in ln for ln in lines)
            assert any(',"say ""hi""",0,2412,' in ln for ln in lines)
        if case == "zero energy":
            assert sum(",acf1,0,0.25,0" in ln for ln in lines) == len(row_times[::3])
            assert sum(",cdist,1,0.6,0" in ln for ln in lines) == len(row_times[::3])
        if case == "ties":
            assert sum(",ed,1.05,1.05,0" in ln for ln in lines) == len(row_times[::2])
            assert sum(",cdist,0.6,0.6,0" in ln for ln in lines) == len(row_times[::2])

    def test_no_blocks_writes_the_header(self, tmp_path):
        write_records(channel_fields(self.CHANNELS), [], _config(), tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_text() == RECORD_CSV_HEADER + "\n"


def _reference_records_csv(rows) -> bytes:
    """(time, channel, detector, statistic, threshold, present) rows as the per-record
    csv.writer loop wrote them: the byte reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_CSV_HEADER.split(","))
    for t, c, det, stat, thr, present in rows:
        writer.writerow([f"{t:.6f}", c.band, c.index_in_band, f"{c.center_freq_mhz:.9g}", det,
                         f"{stat:.9g}", f"{thr:.9g}", 1 if present else 0])
    return buf.getvalue().encode()


def _reference_truth_csv(truths) -> bytes:
    """(time, channel, present) rows as the per-record csv.writer loop wrote them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRUTH_CSV_HEADER.split(","))
    for t, c, present in truths:
        writer.writerow([f"{t:.6f}", c.band, c.index_in_band, f"{c.center_freq_mhz:.9g}",
                         1 if present else 0])
    return buf.getvalue().encode()


class TestColumnarSweep:
    """The time-major sweep (frame windows of channel runs -> stats blocks -> writer) against
    per-frame scan_channel over ComplexFrame timelines, a sorted loop and the per-record
    csv.writer loop."""

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
        start, interval, n_frames = 1767225600.0, 0.25, 40  # windows of 32 and 8 frames
        total = n_frames * interval
        params = self._params(plan)
        blocks = list(_sweep_blocks(plan, spec_table(params), cfg, 64, interval, n_frames,
                                    start, 1))
        times, chan, stats, labels = _flat(blocks)

        # the reference: scan_channel frame by frame, then a stable sort on the canonical key
        band_pos = {"ZULU": 0, "ISM, 433": 1, "ALPHA": 2}
        scans = [
            ((frame.capture_time, band_pos[c.band], c.index_in_band),
             scan_channel(frame, c, cfg), (frame.capture_time, c, label))
            for c, (sig, noise, sched, snr) in zip(plan, params)
            for frame, label in gen_channel_timeline(sched, sig, noise, snr, 64, interval, total,
                                                     center_freq_hz=c.center_freq_mhz * 1e6,
                                                     start_time=start)
        ]
        scans.sort(key=lambda scan: scan[0])
        records = [(r.capture_time, r.channel, r.detector, r.statistic, r.threshold, r.present)
                   for _, recs, _ in scans for r in recs]
        truths = [truth for _, _, truth in scans]

        table = record_table(plan, times, chan, stats, cfg)
        assert len(table.time) == len(records) == 3 * 40 * len(plan)
        for (t, c, d, stat, thr, present), rec in zip(_rows(table), records):
            assert (t, c, d, thr, present) == rec[:3] + rec[4:]
            assert np.float64(stat).view(np.int64) == np.float64(rec[3]).view(np.int64)
        assert labels.tolist() == [present for _, _, present in truths]

        write_records(channel_fields(plan), blocks, cfg, tmp_path / "records.csv",
                      tmp_path / "truth.csv")
        assert (tmp_path / "records.csv").read_bytes() == _reference_records_csv(records)
        assert (tmp_path / "truth.csv").read_bytes() == _reference_truth_csv(truths)

    def test_chunked_writer_matches_reference(self, tmp_path, monkeypatch):
        """Blocks split over several chunks, and several blocks, write the same bytes."""
        plan, cfg = _plan2(), _config()
        times, chan, stats, _ = _sweep(plan, n_scans=4, snr_db=5.0, n=32, interval=0.5)
        monkeypatch.setattr(scan_module, "CSV_CHUNK_ROWS", 7)  # 2 rows a chunk, of 3 a frame
        frame_times, frame_stats = _frame_major(plan, times, stats)
        blocks = [(frame_times[:3], frame_stats[:3]), (frame_times[3:], frame_stats[3:])]
        write_records(channel_fields(plan), blocks, cfg, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == \
            _reference_records_csv(_rows(record_table(plan, times, chan, stats, cfg)))

    def test_truth_writer_matches_reference(self, tmp_path, monkeypatch):
        """With a truth log, write_records writes the same records, and the truth rows of the
        per-record csv.writer loop, however the blocks and the chunks split the frames."""
        plan, cfg = _plan2(), _config()
        times, chan, stats, labels = _sweep(plan, n_scans=4, snr_db=5.0, n=32, interval=0.5)
        monkeypatch.setattr(scan_module, "CSV_CHUNK_ROWS", 7)  # 2 rows a records chunk
        cols = _frame_major(plan, times, stats, labels)
        blocks = [tuple(col[:2] for col in cols), tuple(col[2:] for col in cols)]
        write_records(channel_fields(plan), blocks, cfg, tmp_path / "r.csv", tmp_path / "t.csv")
        write_records(channel_fields(plan), [cols[:2]], cfg, tmp_path / "reference.csv")
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "t.csv").read_bytes() == _reference_truth_csv(
            zip(times.tolist(), [plan[c] for c in chan.tolist()], labels.tolist()))

    def test_read_table_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        table, _ = TestRecordCsv()._records(p)
        back = read_record_table(p)
        assert [row[:3] + row[5:] for row in _rows(back)] == \
            [row[:3] + row[5:] for row in _rows(table)]
        assert back.channels == table.channels

    @pytest.mark.parametrize("bad_line", [2, 5])
    @pytest.mark.parametrize("row, reason", [
        ("0.000000,A,0,100,ed,nope,1.05,1", "could not convert"),
        ("0.000000,A,0,100,matched,0.5,1.05,1", "unknown detector"),
        ("0.000000,A,0,100,ed,0.5,1.05,yes", "present must be 0 or 1"),
        ("0.000000,A,0,100,ed,0.5,1.05", "not enough values"),
        ("0.000000,A,-1,100,ed,0.5,1.05,1", "index_in_band"),
        ("nan,A,0,100,ed,0.5,1.05,1", "time_unix must be finite"),
        ("0.000000,A,0,nan,ed,0.5,1.05,1", "center_freq_mhz"),
        pytest.param("0.000000," + "A" * 200_000 + ",0,100,ed,0.5,1.05,1",
                     "field larger than field limit", id="field over the csv limit"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, bad_line, row, reason):
        good = "1.000000,A,0,100,acf1,0.5,0.25,0"
        lines = [RECORD_CSV_HEADER] + [good] * 5
        lines[bad_line - 1] = row
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(OccuscanError, match=f"bad.csv:{bad_line}: .*{reason}"):
            list(read_records(p, []))
