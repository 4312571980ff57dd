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
formatted once, CSV_CHUNK_ROWS lines at a time; the writer drops a block's
columns, decisions and text before it pulls the next block. ``read_records``
reads it back one validated row at a time and holds no row it has yielded.
ScanRecord objects exist only where ``scan_channel`` returns one frame's
records. Only ``scan_channel`` and ``write_records`` load numpy and the
kernel, so reading the log loads neither.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channels import Channel
from .detector_table import DETECTOR_BY_NAME, DETECTOR_TABLE
from .errors import OccuscanError

if TYPE_CHECKING:
    from .detectors import DetectorConfig
    from .iq import ComplexFrame

RECORD_CSV_HEADER = (
    "time_unix,band,channel_index,center_freq_mhz,detector,statistic,threshold,present"
)
TRUTH_CSV_HEADER = "time_unix,band,channel_index,center_freq_mhz,truth_present"
PLAN_CSV_HEADER = "band,channel_index,center_freq_mhz"

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
    """Raise OccuscanError unless a capture at center_freq_hz is tuned to channel."""
    offset_mhz = abs(center_freq_hz / 1e6 - channel.center_freq_mhz)
    if not offset_mhz <= freq_tol_mhz:  # a NaN offset or tolerance fails too
        raise OccuscanError(
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
    from .detectors import block_statistics, decide_block

    check_tuning(frame.center_freq_hz, channel, freq_tol_mhz)
    stats = block_statistics(frame.samples[None, :], config.reference)
    row, present = stats[0].tolist(), decide_block(stats, config)[0].tolist()
    return [ScanRecord(frame.capture_time, channel, d.name, row[d.column], d.threshold(config),
                       present[d.column]) for d in DETECTOR_TABLE]


# --- CSV surfaces -----------------------------------------------------------
# Floats are written with 9 significant digits ("%.9g"), times with
# microsecond resolution, presence as 1/0; fixed formatting keeps repeated
# runs byte-identical. Rows are written at most CSV_CHUNK_ROWS at a time.

_FLOAT = ".9g"
_TIME = ".6f"
CSV_CHUNK_ROWS = 1024


def channel_fields(channels) -> list[str]:
    """Each channel's "band,channel_index,center_freq_mhz," row prefix, csv-quoted."""
    buf = io.StringIO()
    writerow = csv.writer(buf, lineterminator="\n").writerow  # one writer, emptied after each row
    fields = []
    for c in channels:
        writerow([c.band, c.index_in_band, format(c.center_freq_mhz, _FLOAT), ""])
        fields.append(buf.getvalue()[:-1])
        buf.seek(0)
        buf.truncate()
    return fields


def write_records(heads, blocks, config: DetectorConfig, path, truth_path=None) -> None:
    """Write the record log from the kernel's rows, three records per frame.

    ``blocks`` yields frame-major (times, stats) blocks of C channels, whose row prefixes
    ``heads`` are: stats[f, c] is the block_statistics row of channel c's frame captured at
    times[f], and its ed, acf1 and cdist records follow in that (DETECTOR_TABLE) order.
    With ``truth_path``, each block also carries (F x C) labels, and the truth log is
    written beside the records: the row of channel c at times[f] ends in labels[f, c].
    """
    import numpy as np

    from .detectors import decide_block

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


def _csv_rows(reader, path):
    """The rows of a csv.reader of path; a malformed or non-UTF-8 line raises OccuscanError
    naming path:line."""
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise OccuscanError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:  # text is decoded ahead of the reader: find the line
        with open(path, "rb") as raw:
            for lineno, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise OccuscanError(f"{path}:{lineno}: {bad}") from exc
        raise OccuscanError(f"{path}: {exc}") from exc


def read_records(path, channels: list):
    """Yield each record of a record log as one validated row.

    A row is (time, channel id, detector column, statistic, threshold, present);
    the channel id indexes ``channels``, to which each channel is appended the
    first time it appears. Raises OccuscanError naming path:line, the last
    physical line of the bad record, also for a file with no header line.
    """
    keys: dict = {}  # (band, index, freq) text -> channel id
    ids = {c: i for i, c in enumerate(channels)}  # Channel -> channel id
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)  # its line_num: the last physical line of the row read
        rows = _csv_rows(reader, path)
        header = next(rows, None)
        if header != RECORD_CSV_HEADER.split(","):
            raise OccuscanError(f"{path}:1: " + ("no header line" if header is None
                                                 else f"unexpected header {header}"))
        for row in rows:
            if not row:
                continue
            try:
                t, band, idx, freq, det, stat, thr, present = row
                if det not in DETECTOR_BY_NAME:
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
                record = (time, c, DETECTOR_BY_NAME[det].column, float(stat), float(thr),
                          present == "1")
            except ValueError as exc:  # a quoted band name may hold a newline: cite line_num
                raise OccuscanError(f"{path}:{reader.line_num}: {exc}") from exc
            yield record


def write_plan_csv(heads, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([PLAN_CSV_HEADER + "\n"] + [f"{h[:-1]}\n" for h in heads]))
