"""Occupancy aggregation, the occupancy and plot files, and their formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occuscan import Channel
from occuscan.detectors import DETECTORS
from occuscan.errors import PlanError
from occuscan.report import (
    OCCUPANCY_CSV_HEADER,
    CellTable,
    aggregate_table,
    channel_slug,
    write_occupancy_csv,
    write_plot_data,
)
from occuscan import scan as scan_module
from occuscan.scan import RecordTable, read_record_chunks
from conftest import read_record_table, write_record_tables

CH_A = Channel("X", 0, 100.0)
CH_B = Channel("X", 1, 105.0)


def _table(rows) -> RecordTable:
    """(time, present[, detector[, channel]]) rows as a RecordTable; ed on CH_A by default."""
    rows = [(t, present, *rest) + ("ed", CH_A)[len(rest):] for t, present, *rest in rows]
    ids: dict = {}
    chan = [ids.setdefault(c, len(ids)) for _, _, _, c in rows]
    return RecordTable(
        list(ids),
        np.array([t for t, *_ in rows], dtype=float),
        np.array(chan, dtype=np.intp),
        np.array([DETECTORS.index(d) for _, _, d, _ in rows], dtype=np.intp),
        np.ones(len(rows)),
        np.full(len(rows), 0.5),
        np.array([p for _, p, _, _ in rows], dtype=bool),
    )


def _cells(table: CellTable) -> list[tuple]:
    """A cell table's rows as (channel, detector, bin_start, n_detected, n_total) tuples."""
    return list(zip([table.channels[c] for c in table.chan.tolist()],
                    [DETECTORS[d] for d in table.det.tolist()], table.bin_start.tolist(),
                    table.n_detected.tolist(), table.n_total.tolist()))


class TestAggregate:
    def test_known_ratio(self):
        records = [(float(i), i % 5 == 0) for i in range(180)]
        cells = aggregate_table([_table(records)], 1000.0)
        assert _cells(cells) == [(CH_A, "ed", 0.0, 36, 180)]
        assert cells.n_detected[0] / cells.n_total[0] == 0.2

    def test_bin_split(self):
        # 10 scans at t=0..9, bin length 3: bins [0,3) [3,6) [6,9) [9,12)
        records = [(float(i), True) for i in range(10)]
        cells = aggregate_table([_table(records)], 3.0)
        assert cells.bin_start.tolist() == [0.0, 3.0, 6.0, 9.0]
        assert cells.n_total.tolist() == [3, 3, 3, 1]

    def test_half_open_bin_edges(self):
        records = [(0.0, True), (3.0, True)]
        cells = aggregate_table([_table(records)], 3.0)
        assert cells.bin_start.tolist() == [0.0, 3.0]
        assert cells.n_total.tolist() == [1, 1]

    def test_empty_log(self):
        cells = aggregate_table([_table([])], 10.0)
        assert _cells(cells) == []
        assert all(len(col) == 0 for col in cells[1:])

    def test_groups_by_channel_and_detector(self):
        records = [
            (0.0, True, "ed", CH_A),
            (0.0, False, "acf1", CH_A),
            (0.0, True, "ed", CH_B),
        ]
        cells = aggregate_table([_table(records)], 10.0)
        keys = [(ch.index_in_band, det) for ch, det, *_ in _cells(cells)]
        assert keys == [(0, "ed"), (0, "acf1"), (1, "ed")]

    def test_sorted_detector_canonical_not_alphabetical(self):
        records = [
            (0.0, True, "cdist"),
            (0.0, True, "acf1"),
            (0.0, True, "ed"),
        ]
        cells = aggregate_table([_table(records)], 10.0)
        assert [DETECTORS[d] for d in cells.det] == ["ed", "acf1", "cdist"]

    def test_conservation_across_bins(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 100.0, size=500)
        flags = rng.integers(0, 2, size=500).astype(bool)
        records = [(float(t), bool(p)) for t, p in zip(times, flags)]
        cells = aggregate_table([_table(records)], 7.0)
        assert cells.n_total.sum() == 500
        assert cells.n_detected.sum() == int(flags.sum())

    def test_bad_bin_len(self):
        with pytest.raises(ValueError):
            aggregate_table([_table([])], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=60),
        coarse=st.integers(2, 5),
    )
    def test_bin_refinement_consistency(self, times, coarse):
        """Counts in a coarse bin equal the sum over its aligned finer bins."""
        records = [(t, int(t) % 2 == 0) for t in times]
        fine = 10.0
        cells_fine = _cells(aggregate_table([_table(records)], fine))
        for _, _, start, n_det, n_tot in _cells(aggregate_table([_table(records)], fine * coarse)):
            members = [fc for fc in cells_fine if start <= fc[2] < start + fine * coarse]
            assert sum(m[4] for m in members) == n_tot
            assert sum(m[3] for m in members) == n_det


def _plot(tmp_path, records, bin_len_s) -> list[str]:
    """The lines of CH_A's plot file for (time, present, detector) records."""
    cells = aggregate_table([_table(records)], bin_len_s)
    write_plot_data(cells, tmp_path / "plots")
    return (tmp_path / "plots" / f"{channel_slug(CH_A)}.dat").read_text().splitlines()


class TestReportMatrix:
    """The per-channel (bins x 3) occupancy matrix, as the plot file prints it."""

    RECORDS = [(float(i), flag, det) for i in range(6)
               for det, flag in (("ed", i < 3), ("acf1", i % 2 == 0))]

    def test_alignment(self, tmp_path):
        lines = _plot(tmp_path, self.RECORDS, 3.0)
        rows = [[float(v) for v in line.split()] for line in lines[1:]]
        assert [r[0] for r in rows] == [0.0, 3.0]
        assert [r[1] for r in rows] == [1.0, 0.0]
        assert [r[2] for r in rows] == [pytest.approx(2 / 3), pytest.approx(1 / 3)]

    def test_missing_detector_is_none(self, tmp_path):
        lines = _plot(tmp_path, self.RECORDS, 3.0)
        assert [line.split()[3] for line in lines[1:]] == ["nan", "nan"]

    def test_channels_get_their_own_rows(self, tmp_path):
        records = [(0.0, True, "ed", CH_B), (4.0, False, "acf1", CH_A), (9.0, True, "ed", CH_B)]
        assert _plot(tmp_path, records, 2.0)[1:] == ["4.000000 nan 0 nan"]


class TestExports:
    def test_occupancy_csv_shape(self, tmp_path):
        records = [(float(i), i % 5 == 0) for i in range(180)]
        cells = aggregate_table([_table(records)], 1000.0)
        p = tmp_path / "occ.csv"
        write_occupancy_csv(cells, 1000.0, p)
        lines = p.read_text().splitlines()
        assert lines[0] == OCCUPANCY_CSV_HEADER
        assert lines[1:] == ["X,0,100,ed,0.000000,1000,36,180,0.2"]

    def test_occupancy_csv_quotes_band_and_keeps_cell_order(self, tmp_path):
        band = Channel("ISM, 433", 2, 433.05)
        records = [(5.0, True, "cdist", band), (0.5, False, "ed", CH_B), (1.0, True, "ed", CH_B)]
        p = tmp_path / "occ.csv"
        write_occupancy_csv(aggregate_table([_table(records)], 2.5), 2.5, p)
        assert p.read_text().splitlines()[1:] == [
            '"ISM, 433",2,433.05,cdist,5.000000,2.5,1,1,1',
            "X,1,105,ed,0.000000,2.5,1,2,0.5",
        ]

    def test_plot_data_format(self, tmp_path):
        records = []
        for i in range(4):
            for det in ("ed", "acf1", "cdist"):
                records.append((float(i), True, det))
        lines = _plot(tmp_path, records, 2.0)
        assert lines[0] == "bin_start ed acf1 cdist"
        assert lines[1] == "0.000000 1 1 1"
        assert len(lines) == 3

    def test_plot_data_gap_is_nan(self, tmp_path):
        assert _plot(tmp_path, [(0.0, True, "ed")], 2.0)[1:] == ["0.000000 1 nan nan"]

    def test_channel_slug(self):
        assert channel_slug(Channel("2.4GHz", 5, 2427.0)) == "2.4GHz_ch005"
        assert channel_slug(Channel("GSM 850 UL", 0, 824.0)) == "GSM-850-UL_ch000"


def _reference_plot(cells: CellTable, chan: int) -> str:
    """Channel channels[chan]'s plot file, rendered by masking the whole cell table.

    The per-channel renderer that the single pass over the channel runs replaced:
    the reference for it.
    """
    mine = cells.chan == chan
    bins, row = np.unique(cells.bin_start[mine], return_inverse=True)
    occupancy = np.full((len(bins), len(DETECTORS)), np.nan)
    occupancy[row, cells.det[mine]] = cells.n_detected[mine] / cells.n_total[mine]
    return "bin_start ed acf1 cdist\n" + "".join(
        f"{b:.6f} {' '.join(format(v, '.9g') for v in vals)}\n"
        for b, vals in zip(bins.tolist(), occupancy.tolist()))


class TestPlotFiles:
    """write_plot_data's one pass over the channel runs of the cell table."""

    def test_equals_per_channel_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        channels = [Channel(band, i, 100.0 * k + i + 1.0)
                    for k, band in enumerate(["A", "B 2", "c+"]) for i in range(80)]
        n = 3000
        records = [(float(t), bool(p), DETECTORS[d], channels[c]) for t, p, d, c in zip(
            rng.uniform(-60.0, 60.0, n).round(3), rng.integers(0, 2, n), rng.integers(0, 3, n),
            rng.integers(0, len(channels), n))]
        cells = aggregate_table([_table(records)], 7.0)
        assert write_plot_data(cells, tmp_path / "plots") == len(channels)
        files = {p.name: p.read_bytes() for p in (tmp_path / "plots").iterdir()}
        expected = {f"{channel_slug(cells.channels[c])}.dat": _reference_plot(cells, c).encode()
                    for c in range(len(cells.channels))}
        assert files == expected
        text = b"".join(files.values())
        assert b"\n-7.000000 " in text and b"\n0.000000 " in text and b"nan" in text

    def test_interleaved_channels_are_refused_before_any_file(self, tmp_path):
        records = [(float(t), True, "ed", ch) for t in (0, 10, 20) for ch in (CH_A2, CH_A)]
        cells = aggregate_table([_table(records)], 5.0)
        assert [cells.channels[c] for c in cells.chan.tolist()] == [CH_A2, CH_A] * 3
        with pytest.raises(PlanError, match=r"^plots/X_ch000\.dat: channels 'X':0 and 'X':0 "):
            write_plot_data(cells, tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_no_cells_no_files(self, tmp_path):
        assert write_plot_data(aggregate_table([_table([])], 1.0), tmp_path / "plots") == 0
        assert list((tmp_path / "plots").iterdir()) == []


def _reference_aggregate(rows, bin_len_s):
    """The dict-and-sort loop that the columnar aggregation replaced: the reference.

    ``rows`` are (time, present, detector, channel) tuples; cells come back as
    (channel, detector, bin_start, n_detected, n_total) tuples.
    """
    counts = {}
    for t, present, det, channel in rows:
        pair = counts.setdefault((channel, det, math.floor(t / bin_len_s)), [0, 0])
        pair[0] += 1 if present else 0
        pair[1] += 1
    cells = [(ch, det, b * bin_len_s, n_det, n_tot)
             for (ch, det, b), (n_det, n_tot) in counts.items()]
    cells.sort(key=lambda c: (c[0].band, c[0].index_in_band, DETECTORS.index(c[1]), c[2]))
    return cells


# CH_A's band and index at another frequency: a distinct channel that ties in the sort
CH_A2 = Channel("X", 0, 101.0)


class TestColumnarAggregate:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.floats(-50.0, 1e4), st.sampled_from([CH_A, CH_B, CH_A2,
                                                                 Channel("W", 3, 7.5)]),
                      st.sampled_from(DETECTORS), st.booleans()),
            min_size=0, max_size=80,
        ),
        bin_len=st.sampled_from([0.7, 3.0, 60.0, 1e5]),
    )
    def test_matches_reference_loop(self, rows, bin_len):
        records = [(t, present, det, ch) for t, ch, det, present in rows]
        assert _cells(aggregate_table([_table(records)], bin_len)) == \
            _reference_aggregate(records, bin_len)

    def test_report_cells_equal_object_path(self, tmp_path):
        """Cells of a written and re-read record log equal the reference loop's."""
        records = [(0.5 * i, i % 3 == 0, DETECTORS[i % 3], [CH_A, CH_B, CH_A2][i // 7 % 3])
                   for i in range(200)]
        p = tmp_path / "records.csv"
        write_record_tables([_table(records)], p)
        assert _cells(aggregate_table([read_record_table(p)], 4.0)) == \
            _reference_aggregate(records, 4.0)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64])
    def test_chunked_fold_equals_one_chunk(self, tmp_path, monkeypatch, chunk_rows):
        """Cells counted across chunk boundaries equal the cells of the log as one chunk.

        Channels CH_A and CH_A2 tie in the cell order, so their order rests on
        record indices carried across chunks; cells recur in later chunks.
        """
        rng = np.random.default_rng(5)
        channels = [CH_B, CH_A2, CH_A, Channel("W", 3, 7.5)]
        records = [(float(t), bool(p), DETECTORS[d], channels[c]) for t, p, d, c in zip(
            np.sort(rng.uniform(-20.0, 300.0, 400)).round(6), rng.integers(0, 2, 400),
            rng.integers(0, 3, 400), rng.integers(0, 4, 400))]
        p = tmp_path / "records.csv"
        write_record_tables([_table(records)], p)
        whole = aggregate_table([read_record_table(p)], 30.0)
        write_occupancy_csv(whole, 30.0, tmp_path / "whole.csv")
        monkeypatch.setattr(scan_module, "CSV_CHUNK_ROWS", chunk_rows)
        assert len(list(read_record_chunks(p))) == -(-400 // chunk_rows)
        chunked = aggregate_table(read_record_chunks(p), 30.0)
        write_occupancy_csv(chunked, 30.0, tmp_path / "chunked.csv")
        assert _cells(chunked) == _cells(whole) == _reference_aggregate(records, 30.0)
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            aggregate_table([_table([(float("nan"), True)])], 1.0)
