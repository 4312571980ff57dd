"""Time-binned occupancy aggregation and figure-style export.

Occupancy of a (channel, detector, time bin) cell is the ratio of
present-decided scans to total scans in that bin. Bins are half-open
[start, start + len) aligned to the epoch, so every record lands in exactly
one bin; bins with no scans are omitted (no scans is not the same as zero
occupancy).

Cells are columns from the record table to the files: ``aggregate_table``
counts the cells of a record table (``scan.RecordTable``) with numpy into a
``CellTable``, ``write_occupancy_csv`` renders its rows, and
``write_plot_data`` writes one channel's (bins x 3) occupancy matrix.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .channels import Channel
from .detectors import DETECTORS
from .scan import _FLOAT, _TIME, RecordTable, _channel_fields, _chunks

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


def aggregate_table(table: RecordTable, bin_len_s: float) -> CellTable:
    """Fold a record table into occupancy cells.

    Grouping key is (channel, detector, floor(time / bin_len_s)); an empty
    table folds to no cells. Cells come back sorted by (band, channel index,
    detector, bin start), ties in order of first appearance. Raises
    ValueError when a bin number is not finite (a non-finite time, or a bin
    length so short that time / bin_len_s overflows).
    """
    if not bin_len_s > 0:
        raise ValueError("bin_len_s must be > 0")
    with np.errstate(over="ignore"):
        bin_no = np.floor(table.time / bin_len_s)
    bad = np.flatnonzero(~np.isfinite(bin_no))
    if bad.size:
        t = float(table.time[bad[0]])
        raise ValueError(f"bin numbers must be finite, but capture time {t!r} / bin length "
                         f"{bin_len_s!r} is not")
    bins, bin_id = np.unique(bin_no, return_inverse=True)
    nd, nb = len(DETECTORS), len(bins)
    keys, first, cell = np.unique((table.chan * nd + table.det) * nb + bin_id,
                                  return_index=True, return_inverse=True)
    n_total = np.bincount(cell)
    n_detected = np.bincount(cell[table.present], minlength=len(keys))
    chan, det, bin_id = keys // (nd * nb), keys // nb % nd, keys % nb
    bin_start = bins[bin_id] * bin_len_s
    band_index = sorted({(c.band, c.index_in_band) for c in table.channels})
    rank = {key: i for i, key in enumerate(band_index)}
    chan_rank = np.array([rank[c.band, c.index_in_band] for c in table.channels], dtype=np.intp)
    order = np.lexsort((first, bin_start, det, chan_rank[chan]))
    return CellTable(table.channels, chan[order], det[order], bin_start[order],
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


def write_plot_data(cells: CellTable, chan: int, path) -> None:
    """Channel channels[chan]'s `bin_start ed acf1 cdist` table, one row per bin with scans.

    The rows are the channel's (bins x 3) occupancy matrix; a detector with
    no scans in a bin is NaN there, and prints as nan.
    """
    mine = cells.chan == chan
    bins, row = np.unique(cells.bin_start[mine], return_inverse=True)
    occupancy = np.full((len(bins), len(DETECTORS)), np.nan)
    occupancy[row, cells.det[mine]] = cells.n_detected[mine] / cells.n_total[mine]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_start ed acf1 cdist\n")
        fh.write("".join(
            f"{b:{_TIME}} {' '.join(format(v, _FLOAT) for v in vals)}\n"
            for b, vals in zip(bins.tolist(), occupancy.tolist())
        ))
