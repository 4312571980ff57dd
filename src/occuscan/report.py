"""Time-binned occupancy aggregation and figure-style export.

Occupancy of a (channel, detector, time bin) cell is the ratio of
present-decided scans to total scans in that bin. Bins are half-open
[start, start + len) aligned to the epoch, so every record lands in exactly
one bin; bins with no scans are omitted (no scans is not the same as zero
occupancy).

``aggregate_table`` folds the record log's rows, as ``scan.read_records``
yields them, into a count per cell, so ``report`` holds the cells, not the
records, and puts the cells' keys in order with three stable list sorts.
``write_occupancy_csv`` renders the cells' rows, and one pass of
``write_plot_data`` over the channels' runs of cells names, checks and writes
every plot file. No numpy: the module runs on the standard library.
"""

from __future__ import annotations

import math
import os
import re
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .channels import Channel
from .detector_table import DETECTORS
from .errors import OccuscanError
from .scan import _FLOAT, _TIME, CSV_CHUNK_ROWS, channel_fields

OCCUPANCY_CSV_HEADER = (
    "band,channel_index,center_freq_mhz,detector,bin_start_unix,bin_len_s,"
    "n_detected,n_total,occupancy"
)


class Cells(NamedTuple):
    """Occupancy cells, in report order.

    keys[i] = (channel id, detector column, bin number) names cell i: the scans
    of DETECTORS[detector column] on channels[channel id] in the bin that starts
    at bin number * bin_len_s. counts[keys[i]] = (n_detected, n_total), with
    n_total >= 1, and the cell's occupancy is n_detected / n_total.
    """

    channels: list
    keys: list
    counts: dict
    bin_len_s: float


def aggregate_table(rows, channels: list, bin_len_s: float) -> Cells:
    """Fold record rows into occupancy cells.

    ``rows`` yields (time, channel id, detector column, statistic, threshold,
    present) rows whose channel ids index ``channels``, as ``scan.read_records``
    yields them. Grouping key is (channel, detector, floor(time / bin_len_s));
    no records fold to no cells. Cells come back sorted by (band, channel
    index, detector, bin number), ties (channels of one band and index) in
    order of first appearance; the sorts make no key object per cell. Raises
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
    rank = {key: i for i, key in enumerate(sorted({(c.band, c.index_in_band) for c in channels}))}
    chan_rank = [rank[c.band, c.index_in_band] for c in channels]
    # stable sorts, the least significant key first, so ties keep the dict's order
    keys = list(counts)
    keys.sort(key=itemgetter(2))
    keys.sort(key=itemgetter(1))
    keys.sort(key=lambda k: chan_rank[k[0]])
    return Cells(channels, keys, counts, bin_len_s)


def write_occupancy_csv(cells: Cells, path) -> None:
    """Write one occupancy.csv row per cell, in cell order."""
    heads = channel_fields(cells.channels)
    dets = [f"{name}," for name in DETECTORS]
    keys, counts, bin_len_s = cells.keys, cells.counts, cells.bin_len_s
    bin_len = f",{bin_len_s:{_FLOAT}},"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(OCCUPANCY_CSV_HEADER + "\n")
        for i in range(0, len(keys), CSV_CHUNK_ROWS):
            rows = keys[i:i + CSV_CHUNK_ROWS]
            fh.write("".join(  # + 0.0: a capture time of -0.0 starts bin 0.0, not -0.0
                f"{heads[c]}{dets[d]}{b * bin_len_s + 0.0:{_TIME}}{bin_len}{k},{n},"
                f"{k / n:{_FLOAT}}\n" for (c, d, b), (k, n) in zip(rows, map(counts.get, rows))
            ))


def channel_slug(channel: Channel) -> str:
    """Filesystem-safe name for per-channel outputs."""
    band = re.sub(r"[^A-Za-z0-9.+-]+", "-", channel.band)
    return f"{band}_ch{channel.index_in_band:03d}"


def write_plot_data(cells: Cells, directory) -> int:
    """Write each channel's plot file, directory/<slug>.dat; return the number written.

    A file is the `bin_start ed acf1 cdist` table of the channel's (bins x 3)
    occupancy matrix, nan where a bin has no scans of a detector. Cells sorted
    by (band, channel index) make a channel's cells one run. Only channels of
    one band and index interleave, and they share a file name, so two channels
    on one file raise OccuscanError, before ``directory`` is made.
    """
    names: dict = {}  # file name -> channel id, channels in cell order
    for c, _ in groupby(cells.keys, itemgetter(0)):
        name = f"{channel_slug(cells.channels[c])}.dat"
        if (first := names.setdefault(name, c)) != c:
            a, b = cells.channels[first], cells.channels[c]
            raise OccuscanError(f"plots/{name}: channels {a.band!r}:{a.index_in_band} and "
                                f"{b.band!r}:{b.index_in_band} would both write this file")
    Path(directory).mkdir(exist_ok=True)
    counts, bin_len_s, nan = cells.counts, cells.bin_len_s, math.nan
    directory = os.fspath(directory)  # os.path.join costs a third of what Path(...) does
    for name, (_, run) in zip(names, groupby(cells.keys, itemgetter(0))):
        rows: dict = {}  # bin start -> the bin's occupancy by detector column
        for key in run:  # a later cell of one bin start and detector overwrites an earlier one
            k, n = counts[key]
            rows.setdefault(key[2] * bin_len_s + 0.0, [nan, nan, nan])[key[1]] = k / n
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_start ed acf1 cdist\n" + "".join(
                f"{b:{_TIME}} {ed:{_FLOAT}} {acf1:{_FLOAT}} {cdist:{_FLOAT}}\n"
                for b, (ed, acf1, cdist) in sorted(rows.items())
            ))
    return len(names)
