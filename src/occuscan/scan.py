"""Three-detector scanning and the record log's CSV surfaces.

Every scan of a frame produces exactly three records (energy, lag-1 ACF,
correlation distance), all computed on the identical frame so the detectors
are directly comparable. Inside the system a sweep is columns: frames come as
frame-major blocks of times (F), ``block_statistics`` rows (ed, acf1, cdist)
(F x C x 3) and labels (F x C) for the plan's C channels, already in the record
log's order: by capture time, then band position in the plan, then channel
index. Records within a frame follow DETECTOR_TABLE order.

The record log (and the truth log beside it) is written block by block
straight from the kernel's rows by ``write_records``, each frame's time
formatted once, and read back by ``read_record_chunks`` as RecordTable chunks
of columns, both CSV_CHUNK_ROWS lines at a time. Each holds one block or chunk:
the writer drops a block's columns, decisions and text before it pulls the
next block, the reader a chunk's lines and rows before it reads the next.
ScanRecord objects exist only where ``scan_channel`` returns one frame's
records.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .channels import Channel
from .detectors import (
    DETECTOR_TABLE,
    DETECTORS,
    DetectorConfig,
    block_statistics,
    decide_block,
)
from .errors import CsvParseError, RoutingError
from .iq import ComplexFrame

RECORD_CSV_HEADER = (
    "time_unix,band,channel_index,center_freq_mhz,detector,statistic,threshold,present"
)
TRUTH_CSV_HEADER = "time_unix,band,channel_index,center_freq_mhz,truth_present"
PLAN_CSV_HEADER = "band,channel_index,center_freq_mhz"

_DETECTOR_POS = {name: i for i, name in enumerate(DETECTORS)}


@dataclass(frozen=True)
class ScanRecord:
    """One (time, channel, detector) observation: one row of the record log."""

    capture_time: float
    channel: Channel
    detector: str
    statistic: float
    threshold: float
    present: bool


def check_tuning(center_freq_hz: float, channel: Channel, freq_tol_mhz: float) -> None:
    """Raise RoutingError unless a capture at center_freq_hz is tuned to channel."""
    offset_mhz = abs(center_freq_hz / 1e6 - channel.center_freq_mhz)
    if not offset_mhz <= freq_tol_mhz:  # a NaN offset or tolerance fails too
        raise RoutingError(
            f"frame at {center_freq_hz / 1e6} MHz does not match channel "
            f"{channel.band}[{channel.index_in_band}] at {channel.center_freq_mhz} MHz "
            f"(tolerance {freq_tol_mhz} MHz)"
        )


def scan_channel(
    frame: ComplexFrame,
    channel: Channel,
    config: DetectorConfig,
    freq_tol_mhz: float = 1.0,
) -> list[ScanRecord]:
    """Run all three detectors on one frame; returns [ed, acf1, cdist] records.

    The frame must be tuned to the channel within freq_tol_mhz. A zero-energy
    frame (dead channel) is not an error: its ed record reads 0, and its acf1
    and cdist records hold the no-signal sentinels 0 and 1, which decide absent.
    """
    check_tuning(frame.center_freq_hz, channel, freq_tol_mhz)
    stats = block_statistics(frame.samples[None, :], config.reference)
    row, present = stats[0].tolist(), decide_block(stats, config)[0].tolist()
    return [ScanRecord(frame.capture_time, channel, d.name, row[d.column], d.threshold(config),
                       present[d.column]) for d in DETECTOR_TABLE]


# --- record columns -----------------------------------------------------------

class RecordTable(NamedTuple):
    """Records as columns: a record log, or one chunk of it.

    Record i is (time[i], channels[chan[i]], DETECTORS[det[i]], statistic[i],
    threshold[i], present[i]).
    """

    channels: list
    time: np.ndarray
    chan: np.ndarray
    det: np.ndarray
    statistic: np.ndarray
    threshold: np.ndarray
    present: np.ndarray


# --- CSV surfaces -----------------------------------------------------------
# Floats are written with 9 significant digits ("%.9g"), times with
# microsecond resolution, presence as 1/0; fixed formatting keeps repeated
# runs byte-identical. Rows are written and read at most CSV_CHUNK_ROWS at a
# time. A chunk being read is Python objects, about 1.5 KB a line: 8,192 lines
# added some 12 MB to report's peak RSS, 1,024 add under 2 MB.

_FLOAT = ".9g"
_TIME = ".6f"
CSV_CHUNK_ROWS = 1024


def _chunks(n: int):
    return (slice(i, i + CSV_CHUNK_ROWS) for i in range(0, n, CSV_CHUNK_ROWS))


def channel_fields(channels) -> list[str]:
    """Each channel's "band,channel_index,center_freq_mhz," row prefix, csv-quoted."""
    fields = []
    for c in channels:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            [c.band, c.index_in_band, format(c.center_freq_mhz, _FLOAT), ""]
        )
        fields.append(buf.getvalue()[:-1])
    return fields


def write_records(heads, blocks, config: DetectorConfig, path, truth_path=None) -> None:
    """Write the record log from the kernel's rows, three records per frame.

    ``blocks`` yields frame-major (times, stats) blocks of C channels, whose row prefixes
    ``heads`` are: stats[f, c] is the block_statistics row of channel c's frame captured at
    times[f], and its ed, acf1 and cdist records follow in that (DETECTOR_TABLE) order.
    With ``truth_path``, each block also carries (F x C) labels, and the truth log is
    written beside the records: the row of channel c at times[f] ends in labels[f, c].
    """
    width = len(heads)
    # each detector's "name," and ",threshold," text, made once a file
    (ed, ed_thr), (acf1, acf1_thr), (cdist, cdist_thr) = (
        (f"{d.name},", f",{d.threshold(config):{_FLOAT}},") for d in DETECTOR_TABLE)
    step = CSV_CHUNK_ROWS // len(DETECTOR_TABLE)
    with open(path, "w", encoding="utf-8", newline="") as fh, (open(
            truth_path, "w", encoding="utf-8", newline="") if truth_path else nullcontext()) as truth:
        fh.write(RECORD_CSV_HEADER + "\n")
        if truth:
            truth.write(TRUTH_CSV_HEADER + "\n")

        # one block's (frame, channel) rows; its columns, decisions and text die on return
        def write(times, stats, *labels):
            stamps = [f"{t:{_TIME}}," for t in times.tolist()]
            stats = stats.reshape(-1, len(DETECTOR_TABLE))
            present = decide_block(stats, config).astype(np.uint8)
            for i in range(0, len(stats), step):
                rows = slice(i, i + step)
                # each row's "time,band,channel_index,center_freq_mhz," text
                frames = [stamps[r // width] + heads[r % width]
                          for r in range(i, min(i + step, len(stats)))]
                fh.write("".join([
                    f"{h}{ed}{a:{_FLOAT}}{ed_thr}{x}\n{h}{acf1}{b:{_FLOAT}}{acf1_thr}{y}\n"
                    f"{h}{cdist}{e:{_FLOAT}}{cdist_thr}{z}\n"
                    for h, (a, b, e), (x, y, z) in zip(frames, stats[rows].tolist(),
                                                       present[rows].tolist())
                ]))
                if truth:
                    truth.write("".join(f"{h}{p}\n" for h, p in zip(
                        frames, labels[0].reshape(-1)[rows].astype(np.uint8).tolist())))

        for block in blocks:
            write(*block)
            del block  # so none of it is held while the next block is made


def _csv_rows(fh, path):
    """The csv.reader rows of fh; a malformed or non-UTF-8 line raises CsvParseError naming
    path:line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise CsvParseError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:  # text is decoded ahead of the reader: find the line
        with open(path, "rb") as raw:
            for lineno, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise CsvParseError(f"{path}:{lineno}: {bad}") from exc
        raise CsvParseError(f"{path}: {exc}") from exc


def read_record_chunks(path):
    """Yield a record log as RecordTable chunks of at most CSV_CHUNK_ROWS lines.

    Channel ids are global across chunks: every chunk's ``channels`` is one
    list, which grows as channels first appear. Only one chunk's rows are
    held as Python objects. Raises CsvParseError naming path:line.
    """
    keys: dict = {}  # (band, index, freq) text -> channel id
    ids: dict = {}  # Channel -> channel id
    channels: list = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_rows(fh, path)
        header = next(reader, None)
        if header is not None and header != RECORD_CSV_HEADER.split(","):
            raise CsvParseError(f"{path}:1: unexpected header {header}")
        lines = enumerate(reader, start=2)
        while chunk := list(islice(lines, CSV_CHUNK_ROWS)):
            rows = []
            for lineno, row in chunk:
                if not row:
                    continue
                try:
                    t, band, idx, freq, det, stat, thr, present = row
                    if det not in _DETECTOR_POS:
                        raise ValueError(f"unknown detector {det!r}")
                    if present not in ("0", "1"):
                        raise ValueError(f"present must be 0 or 1, got {present!r}")
                    time = float(t)
                    if not math.isfinite(time):
                        raise ValueError(f"time_unix must be finite, got {t!r}")
                    c = keys.get((band, idx, freq))
                    if c is None:
                        channel = Channel(band, int(idx), float(freq))
                        if channel not in ids:
                            ids[channel] = len(channels)
                            channels.append(channel)
                        c = keys[band, idx, freq] = ids[channel]
                    rows.append((time, c, _DETECTOR_POS[det], float(stat), float(thr),
                                 present == "1"))
                except ValueError as exc:
                    raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
            cols = np.array(rows, dtype=float).reshape(-1, 6).T
            del chunk, rows  # so the next chunk is parsed with none of this one's objects held
            yield RecordTable(channels, cols[0], cols[1].astype(np.intp),
                              cols[2].astype(np.intp), cols[3], cols[4], cols[5].astype(bool))


def write_plan_csv(heads, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([PLAN_CSV_HEADER + "\n"] + [f"{h[:-1]}\n" for h in heads]))
