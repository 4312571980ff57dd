"""Occupancy aggregation, the occupancy and plot files, and their formats."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from occuscan import Channel
from occuscan.detector_table import DETECTORS
from occuscan.errors import OccuscanError
from occuscan.report import (
    OCCUPANCY_CSV_HEADER,
    Cells,
    aggregate_table,
    channel_slug,
    write_occupancy_csv,
    write_plot_data,
)
from occuscan.scan import read_records
from conftest import RecordTable, table_of_rows, write_record_tables

CH_A = Channel("X", 0, 100.0)
CH_B = Channel("X", 1, 105.0)


def _rows(records) -> tuple[list, list]:
    """(time, present[, detector[, channel]]) records as aggregate_table's rows and
    channels; ed on CH_A by default."""
    records = [(t, present, *rest) + ("ed", CH_A)[len(rest):] for t, present, *rest in records]
    ids: dict = {}
    rows = [(t, ids.setdefault(c, len(ids)), DETECTORS.index(d), 1.0, 0.5, p)
            for t, p, d, c in records]
    return rows, list(ids)


def _table(records) -> RecordTable:
    return table_of_rows(*_rows(records))


def _aggregate(records, bin_len_s) -> Cells:
    rows, channels = _rows(records)
    return aggregate_table(rows, channels, bin_len_s)


def _fold_file(path, bin_len_s) -> Cells:
    """The cells of a record log, its rows read by scan.read_records."""
    channels: list = []
    return aggregate_table(read_records(path, channels), channels, bin_len_s)


def _cells(cells: Cells) -> list[tuple]:
    """Cells as (channel, detector, bin_start, n_detected, n_total) tuples, in cell order."""
    return [(cells.channels[c], DETECTORS[d], b * cells.bin_len_s + 0.0, *cells.counts[c, d, b])
            for c, d, b in cells.keys]


class TestAggregate:
    def test_known_ratio(self):
        records = [(float(i), i % 5 == 0) for i in range(180)]
        cells = _aggregate(records, 1000.0)
        assert _cells(cells) == [(CH_A, "ed", 0.0, 36, 180)]
        n_detected, n_total = cells.counts[cells.keys[0]]
        assert n_detected / n_total == 0.2

    def test_bin_split(self):
        # 10 scans at t=0..9, bin length 3: bins [0,3) [3,6) [6,9) [9,12)
        records = [(float(i), True) for i in range(10)]
        cells = _cells(_aggregate(records, 3.0))
        assert [c[2] for c in cells] == [0.0, 3.0, 6.0, 9.0]
        assert [c[4] for c in cells] == [3, 3, 3, 1]

    def test_half_open_bin_edges(self):
        records = [(0.0, True), (3.0, True)]
        cells = _cells(_aggregate(records, 3.0))
        assert [c[2] for c in cells] == [0.0, 3.0]
        assert [c[4] for c in cells] == [1, 1]

    def test_empty_log(self):
        cells = _aggregate([], 10.0)
        assert _cells(cells) == []
        assert cells.keys == [] and cells.counts == {}

    def test_groups_by_channel_and_detector(self):
        records = [
            (0.0, True, "ed", CH_A),
            (0.0, False, "acf1", CH_A),
            (0.0, True, "ed", CH_B),
        ]
        cells = _aggregate(records, 10.0)
        keys = [(ch.index_in_band, det) for ch, det, *_ in _cells(cells)]
        assert keys == [(0, "ed"), (0, "acf1"), (1, "ed")]

    def test_sorted_detector_canonical_not_alphabetical(self):
        records = [
            (0.0, True, "cdist"),
            (0.0, True, "acf1"),
            (0.0, True, "ed"),
        ]
        cells = _aggregate(records, 10.0)
        assert [det for _, det, *_ in _cells(cells)] == ["ed", "acf1", "cdist"]

    def test_conservation_across_bins(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 100.0, size=500)
        flags = rng.integers(0, 2, size=500).astype(bool)
        records = [(float(t), bool(p)) for t, p in zip(times, flags)]
        cells = _cells(_aggregate(records, 7.0))
        assert sum(c[4] for c in cells) == 500
        assert sum(c[3] for c in cells) == int(flags.sum())

    def test_bad_bin_len(self):
        with pytest.raises(ValueError):
            _aggregate([], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=60),
        coarse=st.integers(2, 5),
    )
    def test_bin_refinement_consistency(self, times, coarse):
        """Counts in a coarse bin equal the sum over its aligned finer bins."""
        records = [(t, int(t) % 2 == 0) for t in times]
        fine = 10.0
        cells_fine = _cells(_aggregate(records, fine))
        for _, _, start, n_det, n_tot in _cells(_aggregate(records, fine * coarse)):
            members = [fc for fc in cells_fine if start <= fc[2] < start + fine * coarse]
            assert sum(m[4] for m in members) == n_tot
            assert sum(m[3] for m in members) == n_det


def _plot(tmp_path, records, bin_len_s) -> list[str]:
    """The lines of CH_A's plot file for (time, present, detector) records."""
    cells = _aggregate(records, bin_len_s)
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
        cells = _aggregate(records, 1000.0)
        p = tmp_path / "occ.csv"
        write_occupancy_csv(cells, p)
        lines = p.read_text().splitlines()
        assert lines[0] == OCCUPANCY_CSV_HEADER
        assert lines[1:] == ["X,0,100,ed,0.000000,1000,36,180,0.2"]

    def test_occupancy_csv_quotes_band_and_keeps_cell_order(self, tmp_path):
        band = Channel("ISM, 433", 2, 433.05)
        records = [(5.0, True, "cdist", band), (0.5, False, "ed", CH_B), (1.0, True, "ed", CH_B)]
        p = tmp_path / "occ.csv"
        write_occupancy_csv(_aggregate(records, 2.5), p)
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


def _reference_plot(cells: Cells, chan: int) -> str:
    """Channel channels[chan]'s plot file, rendered from the channel's cells picked out of
    all of them, with numpy.

    The per-channel renderer that the single pass over the channel runs replaced:
    the reference for it.
    """
    mine = [(DETECTORS.index(d), b, k / n) for c, d, b, k, n in _cells(cells)
            if c == cells.channels[chan]]
    bins, row = np.unique([b for _, b, _ in mine], return_inverse=True)
    occupancy = np.full((len(bins), len(DETECTORS)), np.nan)
    occupancy[row, [d for d, _, _ in mine]] = [o for _, _, o in mine]
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
        cells = _aggregate(records, 7.0)
        assert write_plot_data(cells, tmp_path / "plots") == len(channels)
        files = {p.name: p.read_bytes() for p in (tmp_path / "plots").iterdir()}
        expected = {f"{channel_slug(cells.channels[c])}.dat": _reference_plot(cells, c).encode()
                    for c in range(len(cells.channels))}
        assert files == expected
        text = b"".join(files.values())
        assert b"\n-7.000000 " in text and b"\n0.000000 " in text and b"nan" in text

    def test_interleaved_channels_are_refused_before_any_file(self, tmp_path):
        records = [(float(t), True, "ed", ch) for t in (0, 10, 20) for ch in (CH_A2, CH_A)]
        cells = _aggregate(records, 5.0)
        assert [cells.channels[c] for c, _, _ in cells.keys] == [CH_A2, CH_A] * 3
        with pytest.raises(OccuscanError, match=r"^plots/X_ch000\.dat: channels 'X':0 and 'X':0 "):
            write_plot_data(cells, tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_no_cells_no_files(self, tmp_path):
        assert write_plot_data(_aggregate([], 1.0), tmp_path / "plots") == 0
        assert list((tmp_path / "plots").iterdir()) == []


def _reference_aggregate(rows, bin_len_s):
    """A dict-and-sort loop with one tuple sort key per cell: the reference.

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
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(st.floats(-50.0, 1e4), st.sampled_from([CH_A, CH_B, CH_A2,
                                                                 Channel("W", 3, 7.5)]),
                      st.sampled_from(DETECTORS), st.booleans()),
            min_size=0, max_size=80,
        ),
        bin_len=st.sampled_from([0.7, 3.0, 60.0, 1e5]),
    )
    # CH_A2 comes first in the log and in the ed cell, CH_A first in the acf1 cell, and
    # CH_A's ed cell recurs after a later bin
    @example(rows=[(0.0, CH_A2, "ed", True), (1.0, CH_A, "ed", False), (2.0, CH_A, "acf1", True),
                   (3.0, CH_A2, "acf1", False), (200.0, CH_A2, "ed", True),
                   (4.0, CH_A, "ed", True)], bin_len=60.0)
    def test_matches_reference_loop(self, tmp_path, rows, bin_len):
        """Cells of a written and re-read record log equal the reference loop's.

        Channel ids come from the file. CH_A and CH_A2 tie in the cell order, so
        their cells' order rests on each cell's first appearance in the whole
        log, not on the channel's; and a cell's records may recur anywhere in it.
        """
        # times as the log holds them, to the microsecond
        records = [(float(f"{t:.6f}"), present, det, ch) for t, ch, det, present in rows]
        p = tmp_path / "records.csv"
        write_record_tables([_table(records)], p)
        assert _cells(_fold_file(p, bin_len)) == _reference_aggregate(records, bin_len)

    def test_report_cells_equal_object_path(self, tmp_path):
        """Cells of a written and re-read record log equal the reference loop's."""
        records = [(0.5 * i, i % 3 == 0, DETECTORS[i % 3], [CH_A, CH_B, CH_A2][i // 7 % 3])
                   for i in range(200)]
        p = tmp_path / "records.csv"
        write_record_tables([_table(records)], p)
        assert _cells(_fold_file(p, 4.0)) == _reference_aggregate(records, 4.0)

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _aggregate([(float("nan"), True)], 1.0)
