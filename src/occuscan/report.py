"""Time-binned occupancy aggregation and figure-style export.

Occupancy of a (channel, detector, time bin) cell is the ratio of
present-decided scans to total scans in that bin. Bins are half-open
[start, start + len) aligned to the epoch, so every record lands in exactly
one bin; bins with no scans are omitted (no scans is not the same as zero
occupancy).

Aggregation is columnar: ``aggregate_table`` counts the cells of a record
table (``scan.RecordTable``) with numpy.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .detectors import DETECTORS
from .scan import RecordTable, _fmt, _fmt_time

OCCUPANCY_CSV_HEADER = (
    "band,channel_index,center_freq_mhz,detector,bin_start_unix,bin_len_s,"
    "n_detected,n_total,occupancy"
)


@dataclass(frozen=True)
class OccupancyCell:
    """Detection ratio for one channel/detector/time-bin triple."""

    channel: Channel
    detector: str
    bin_start: float
    bin_len_s: float
    n_detected: int
    n_total: int

    def __post_init__(self):
        if not self.bin_len_s > 0:
            raise ValueError("bin_len_s must be > 0")
        if not 0 <= self.n_detected <= self.n_total:
            raise ValueError("need 0 <= n_detected <= n_total")
        if self.n_total < 1:
            raise ValueError("empty cells are omitted, not constructed")

    @property
    def occupancy(self) -> float:
        return self.n_detected / self.n_total


def aggregate_table(table: RecordTable, bin_len_s: float) -> list[OccupancyCell]:
    """Fold a record table into occupancy cells.

    Grouping key is (channel, detector, floor(time / bin_len_s)); an empty
    table folds to an empty report. Cells come back sorted by (band, channel
    index, detector, bin start), ties in order of first appearance.
    """
    if not bin_len_s > 0:
        raise ValueError("bin_len_s must be > 0")
    if not len(table.time):
        return []
    if not np.isfinite(table.time).all():
        raise ValueError("capture times must be finite")
    bins, bin_id = np.unique(np.floor(table.time / bin_len_s), return_inverse=True)
    nd, nb = len(DETECTORS), len(bins)
    keys, first, cell = np.unique((table.chan * nd + table.det) * nb + bin_id,
                                  return_index=True, return_inverse=True)
    n_total = np.bincount(cell)
    n_detected = np.bincount(cell[table.present], minlength=len(keys))
    chan, det, bin_id = keys // (nd * nb), keys // nb % nd, keys % nb
    bin_start = bins[bin_id] * bin_len_s
    band_index = sorted({(c.band, c.index_in_band) for c in table.channels})
    rank = {key: i for i, key in enumerate(band_index)}
    chan_rank = np.array([rank[c.band, c.index_in_band] for c in table.channels])
    order = np.lexsort((first, bin_start, det, chan_rank[chan]))
    return [
        OccupancyCell(table.channels[c], DETECTORS[d], b, bin_len_s, n_det, n_tot)
        for c, d, b, n_det, n_tot in zip(
            chan[order].tolist(), det[order].tolist(), bin_start[order].tolist(),
            n_detected[order].tolist(), n_total[order].tolist(),
        )
    ]


@dataclass(frozen=True)
class ChannelMatrix:
    """Aligned per-detector occupancy series for one channel.

    ``bin_starts`` is the union of bin starts seen by any detector; each
    series has one entry per bin, None where that detector has no scans.
    """

    channel: Channel
    bin_starts: tuple
    series: dict  # detector -> tuple of float | None


def report_matrix(cells, channel: Channel) -> ChannelMatrix:
    """Aligned (bin_start -> occupancy) series for ed/acf1/cdist on one channel.

    A channel with no cells raises LookupError.
    """
    mine = [c for c in cells if c.channel == channel]
    if not mine:
        raise LookupError(f"unknown channel {channel.band}[{channel.index_in_band}]")
    bin_starts = tuple(sorted({c.bin_start for c in mine}))
    pos = {b: i for i, b in enumerate(bin_starts)}
    series = {}
    for det in DETECTORS:
        col: list = [None] * len(bin_starts)
        for c in mine:
            if c.detector == det:
                col[pos[c.bin_start]] = c.occupancy
        series[det] = tuple(col)
    return ChannelMatrix(channel, bin_starts, series)


def write_occupancy_csv(cells, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OCCUPANCY_CSV_HEADER.split(","))
        for c in cells:
            writer.writerow(
                [
                    c.channel.band,
                    c.channel.index_in_band,
                    _fmt(c.channel.center_freq_mhz),
                    c.detector,
                    _fmt_time(c.bin_start),
                    _fmt(c.bin_len_s),
                    c.n_detected,
                    c.n_total,
                    _fmt(c.occupancy),
                ]
            )


def channel_slug(channel: Channel) -> str:
    """Filesystem-safe name for per-channel outputs."""
    band = re.sub(r"[^A-Za-z0-9.+-]+", "-", channel.band)
    return f"{band}_ch{channel.index_in_band:03d}"


def write_plot_data(matrix: ChannelMatrix, path) -> None:
    """Whitespace-delimited `bin_start ed acf1 cdist` table; gaps print as nan."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_start ed acf1 cdist\n")
        for i, b in enumerate(matrix.bin_starts):
            vals = [
                "nan" if matrix.series[d][i] is None else _fmt(matrix.series[d][i])
                for d in DETECTORS
            ]
            fh.write(f"{_fmt_time(b)} {' '.join(vals)}\n")
