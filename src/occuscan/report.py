"""Time-binned occupancy aggregation and figure-style export.

Occupancy of a (channel, detector, time bin) cell is the ratio of
present-decided scans to total scans in that bin. Bins are half-open
[start, start + len) aligned to the epoch, so every record lands in exactly
one bin; bins with no scans are omitted (no scans is not the same as zero
occupancy).

Cells are columns from the record log to the files: ``aggregate_table``
counts the cells of record table chunks (``scan.RecordTable``, as
``scan.read_record_chunks`` yields them) with numpy into a ``CellTable``, a
chunk at a time, so ``report`` holds the cells and one chunk, not every
record. ``write_occupancy_csv`` renders the cells' rows, and one pass of
``write_plot_data`` over the channels names, checks and writes every plot file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channels import Channel
from .detectors import DETECTORS
from .errors import PlanError
from .scan import _FLOAT, _TIME, _channel_fields, _chunks

OCCUPANCY_CSV_HEADER = (
    "band,channel_index,center_freq_mhz,detector,bin_start_unix,bin_len_s,"
    "n_detected,n_total,occupancy"
)


class CellTable(NamedTuple):
    """Occupancy cells as columns.

    Cell i counts n_detected[i] present decisions among the n_total[i] >= 1
    scans of DETECTORS[det[i]] on channels[chan[i]] in the bin that starts at
    bin_start[i]; its occupancy is n_detected[i] / n_total[i].
    """

    channels: list
    chan: np.ndarray
    det: np.ndarray
    bin_start: np.ndarray
    n_detected: np.ndarray
    n_total: np.ndarray


def _merge(parts) -> tuple:
    """One cell per (chan, det, bin number) of the concatenated cell columns ``parts``.

    Each part is (chan, det, bin_no, first, n_detected, n_total) columns, one
    row per record or per cell; a merged cell keeps its smallest ``first``
    (its first record's index) and that row's bin number.
    """
    chan, det, bin_no, first, n_detected, n_total = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((first, bin_no, det, chan))
    chan, det, bin_no, first = chan[order], det[order], bin_no[order], first[order]
    new = np.ones(len(chan), dtype=bool)
    new[1:] = (chan[1:] != chan[:-1]) | (det[1:] != det[:-1]) | (bin_no[1:] != bin_no[:-1])
    starts = np.flatnonzero(new)
    return (chan[starts], det[starts], bin_no[starts], first[starts],
            np.add.reduceat(n_detected[order], starts), np.add.reduceat(n_total[order], starts))


def aggregate_table(chunks, bin_len_s: float) -> CellTable:
    """Fold record table chunks into occupancy cells.

    ``chunks`` yields ``scan.RecordTable`` chunks whose channel ids are global
    (``scan.read_record_chunks``). Grouping key is (channel, detector,
    floor(time / bin_len_s)); no records fold to no cells. The chunks not
    yet counted are merged into the cells once they hold as many rows as
    the cells do, so memory follows the number of cells, not of records.
    Cells come back sorted by (band, channel index, detector, bin start),
    ties in order of first appearance. Raises ValueError when a bin number
    is not finite (a non-finite time, or a bin length so short that time /
    bin_len_s overflows), once every chunk is read: an error raised while
    reading a later chunk comes first.
    """
    if not bin_len_s > 0:
        raise ValueError("bin_len_s must be > 0")
    ints, floats = np.empty(0, dtype=np.intp), np.empty(0)
    parts, pending, records = [(ints, ints, floats, ints, ints, ints)], 0, 0  # cells first
    channels, bad = [], None
    for table in chunks:
        channels = table.channels
        with np.errstate(over="ignore"):
            bin_no = np.floor(table.time / bin_len_s)
        finite = np.isfinite(bin_no)
        if bad is None and not finite.all():
            bad = float(table.time[np.argmin(finite)])
        if bad is not None:
            continue
        n = len(bin_no)
        parts.append((table.chan, table.det, bin_no, np.arange(records, records + n),
                      table.present.astype(np.intp), np.ones(n, dtype=np.intp)))
        records, pending = records + n, pending + n
        if pending >= len(parts[0][0]):
            parts, pending = [_merge(parts)], 0
    if bad is not None:
        raise ValueError(f"bin numbers must be finite, but capture time {bad!r} / bin length "
                         f"{bin_len_s!r} is not")
    chan, det, bin_no, first, n_detected, n_total = _merge(parts)
    bin_start = bin_no * bin_len_s + 0.0  # a capture time of -0.0 starts bin 0.0, not -0.0
    band_index = sorted({(c.band, c.index_in_band) for c in channels})
    rank = {key: i for i, key in enumerate(band_index)}
    chan_rank = np.array([rank[c.band, c.index_in_band] for c in channels], dtype=np.intp)
    order = np.lexsort((first, bin_start, det, chan_rank[chan]))
    return CellTable(channels, chan[order], det[order], bin_start[order],
                     n_detected[order], n_total[order])


def write_occupancy_csv(cells: CellTable, bin_len_s: float, path) -> None:
    """Write one occupancy.csv row per cell, in table order."""
    heads = _channel_fields(cells.channels)
    dets = [f"{name}," for name in DETECTORS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(OCCUPANCY_CSV_HEADER + "\n")
        for rows in _chunks(len(cells.chan)):
            fh.write("".join(
                f"{heads[c]}{dets[d]}{b:{_TIME}},{bin_len_s:{_FLOAT}},{k},{n},{k / n:{_FLOAT}}\n"
                for c, d, b, k, n in zip(
                    cells.chan[rows].tolist(), cells.det[rows].tolist(),
                    cells.bin_start[rows].tolist(), cells.n_detected[rows].tolist(),
                    cells.n_total[rows].tolist(),
                )
            ))


def channel_slug(channel: Channel) -> str:
    """Filesystem-safe name for per-channel outputs."""
    band = re.sub(r"[^A-Za-z0-9.+-]+", "-", channel.band)
    return f"{band}_ch{channel.index_in_band:03d}"


def write_plot_data(cells: CellTable, directory) -> int:
    """Write each channel's plot file, directory/<slug>.dat; return the number written.

    A file is the `bin_start ed acf1 cdist` table of the channel's (bins x 3)
    occupancy matrix, NaN (printed nan) where a bin has no scans of a detector.
    Cells sorted by (band, channel index) make a channel's cells one run. Only
    channels of one band and index interleave, and they share a file name, so
    two channels on one file raise PlanError, before ``directory`` is made.
    """
    starts = np.flatnonzero(np.diff(cells.chan, prepend=-1)).tolist()
    names: dict = {}  # file name -> channel id, channels in cell order
    for c in cells.chan[starts].tolist():
        name = f"{channel_slug(cells.channels[c])}.dat"
        if (first := names.setdefault(name, c)) != c:
            a, b = cells.channels[first], cells.channels[c]
            raise PlanError(f"plots/{name}: channels {a.band!r}:{a.index_in_band} and "
                            f"{b.band!r}:{b.index_in_band} would both write this file")
    Path(directory).mkdir(exist_ok=True)
    for name, run in zip(names, map(slice, starts, starts[1:] + [len(cells.chan)])):
        bins, row = np.unique(cells.bin_start[run], return_inverse=True)
        occupancy = np.full((len(bins), len(DETECTORS)), np.nan)
        occupancy[row, cells.det[run]] = cells.n_detected[run] / cells.n_total[run]
        with open(Path(directory, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_start ed acf1 cdist\n")
            fh.write("".join(
                f"{b:{_TIME}} {' '.join(format(v, _FLOAT) for v in vals)}\n"
                for b, vals in zip(bins.tolist(), occupancy.tolist())
            ))
    return len(names)
