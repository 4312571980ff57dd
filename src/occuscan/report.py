"""Time-binned occupancy aggregation and figure-style export.

Occupancy of a (channel, detector, time bin) cell is the ratio of
present-decided scans to total scans in that bin. Bins are half-open
[start, start + len) aligned to the epoch, so every record lands in exactly
one bin; bins with no scans are omitted (no scans is not the same as zero
occupancy).

``aggregate_table`` folds the record log's rows, as ``scan.read_records``
yields them, into a count per cell, so ``report`` holds the cells, not the
records; the cells then become a ``CellTable`` of columns, sorted once.
``write_occupancy_csv`` renders the cells' rows, and one pass of
``write_plot_data`` over the channels names, checks and writes every plot file.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channels import Channel
from .detectors import DETECTORS
from .errors import PlanError
from .scan import _FLOAT, _TIME, _chunks, channel_fields

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


def aggregate_table(rows, channels: list, bin_len_s: float) -> CellTable:
    """Fold record rows into occupancy cells.

    ``rows`` yields (time, channel id, detector column, statistic, threshold,
    present) rows whose channel ids index ``channels``, as ``scan.read_records``
    yields them. Grouping key is (channel, detector, floor(time / bin_len_s));
    no records fold to no cells. Cells come back sorted by (band, channel
    index, detector, bin start), ties in order of first appearance. Raises
    ValueError when a bin number is not finite (a non-finite time, or a bin
    length so short that time / bin_len_s overflows), once every row is read:
    an error raised while reading a later row comes first.
    """
    if not bin_len_s > 0:
        raise ValueError("bin_len_s must be > 0")
    counts: dict = {}  # (channel id, detector column, bin number) -> (n_detected, n_total)
    bad = None
    for time, chan, det, _, _, present in rows:
        bin_no = time / bin_len_s
        if bad is None and not math.isfinite(bin_no):
            bad = time
        if bad is None:
            key = (chan, det, math.floor(bin_no))
            n_detected, n_total = counts.get(key, (0, 0))
            counts[key] = (n_detected + present, n_total + 1)
    if bad is not None:
        raise ValueError(f"bin numbers must be finite, but capture time {bad!r} / bin length "
                         f"{bin_len_s!r} is not")
    chan, det, bin_no = np.array(list(counts), dtype=float).reshape(-1, 3).T
    n_detected, n_total = np.array(list(counts.values()), dtype=np.intp).reshape(-1, 2).T
    del counts  # freed before sorting; lexsort is stable, so ties keep the dict's order
    bin_start = bin_no * bin_len_s + 0.0  # a capture time of -0.0 starts bin 0.0, not -0.0
    band_index = sorted({(c.band, c.index_in_band) for c in channels})
    rank = {key: i for i, key in enumerate(band_index)}
    chan_rank = np.array([rank[c.band, c.index_in_band] for c in channels], dtype=np.intp)
    order = np.lexsort((bin_start, det, chan_rank[chan.astype(np.intp)]))
    return CellTable(channels, chan[order].astype(np.intp), det[order].astype(np.intp),
                     bin_start[order], n_detected[order], n_total[order])


def write_occupancy_csv(cells: CellTable, bin_len_s: float, path) -> None:
    """Write one occupancy.csv row per cell, in table order."""
    heads = channel_fields(cells.channels)
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
    new = np.diff(cells.chan, prepend=-1) != 0
    starts = np.flatnonzero(new)
    names: dict = {}  # file name -> channel id, channels in cell order
    for c in cells.chan[starts].tolist():
        name = f"{channel_slug(cells.channels[c])}.dat"
        if (first := names.setdefault(name, c)) != c:
            a, b = cells.channels[first], cells.channels[c]
            raise PlanError(f"plots/{name}: channels {a.band!r}:{a.index_in_band} and "
                            f"{b.band!r}:{b.index_in_band} would both write this file")
    Path(directory).mkdir(exist_ok=True)
    # one sort by (channel run, bin start) moves cells only within their run, so each
    # file's rows are one slice of one stacked (bins x 3) occupancy matrix
    order = np.lexsort((cells.bin_start, np.cumsum(new)))
    bin_start = cells.bin_start[order]
    first_in_row = new.copy()  # a row starts at a new channel or a new bin
    first_in_row[1:] |= bin_start[1:] != bin_start[:-1]
    row = np.cumsum(first_in_row) - 1
    bins = bin_start[first_in_row]
    occupancy = np.full((len(bins), len(DETECTORS)), np.nan)
    occupancy[row, cells.det[order]] = cells.n_detected[order] / cells.n_total[order]
    bounds = row[starts].tolist() + [len(bins)]
    directory = os.fspath(directory)  # os.path.join costs a third of what Path(...) does
    for name, rows in zip(names, map(slice, bounds, bounds[1:])):
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_start ed acf1 cdist\n")
            fh.write("".join(
                f"{b:{_TIME}} {' '.join(format(v, _FLOAT) for v in vals)}\n"
                for b, vals in zip(bins[rows].tolist(), occupancy[rows].tolist())
            ))
    return len(names)
