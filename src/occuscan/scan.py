"""Three-detector scanning, the sweep merge and the record log's CSV surfaces.

Every scan of a frame produces exactly three records (energy, lag-1 ACF,
correlation distance), all computed on the identical frame so the detectors
are directly comparable. Inside the system a sweep is columns: each channel
scans to (times, stats, labels) arrays, with one ``block_statistics`` row
(ed, acf1, cdist) per frame, and ``merge_sweep`` orders all channels' frames
canonically by (capture_time, band position in the plan, channel index), so
concurrent per-channel scanning merges to the same log as a sequential run.
Records within a frame follow DETECTOR_TABLE order.

The record log is written straight from the kernel's (times, chan, stats)
rows by ``write_records`` and read back as RecordTable columns, both in
chunks; ScanRecord objects exist only where ``scan_channel`` returns one
frame's records.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .channels import Channel
from .detectors import (
    DETECTOR_ED,
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
    """One (time, channel, detector) observation.

    ``degenerate`` marks acf1/cdist records from a zero-energy frame: their
    statistics are the no-signal sentinels (0 correlation, maximal distance)
    rather than computed values. The flag is in-memory only; the record CSV
    schema does not carry it.
    """

    capture_time: float
    channel: Channel
    detector: str
    statistic: float
    threshold: float
    present: bool
    degenerate: bool = False


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
    frame (dead channel) is not an error: the energy record is normal
    (statistic 0) and the ACF-based records decide absent with the
    degenerate marker set.
    """
    check_tuning(frame.center_freq_hz, channel, freq_tol_mhz)
    stats = block_statistics(frame.samples[None, :], config.reference)
    row, present = stats[0].tolist(), decide_block(stats, config)[0].tolist()
    dead = row[0] == 0.0
    return [
        ScanRecord(frame.capture_time, channel, d.name, row[d.column], d.threshold(config),
                   present[d.column], degenerate=dead and d.name != DETECTOR_ED)
        for d in DETECTOR_TABLE
    ]


def _columns(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated (times, stats, labels) column triples; no parts gives empty columns."""
    empty = (np.empty(0), np.empty((0, len(DETECTOR_TABLE))), np.empty(0, dtype=bool))
    times, stats, labels = (np.concatenate(col) for col in zip(empty, *parts))
    return times, stats, labels


def scan_blocks(blocks, config: DetectorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel's (times, frames, labels) blocks scanned to (times, stats, labels) columns.

    A frame whose energy is not finite raises SampleDataError naming its
    index in the channel's frame sequence.
    """
    parts, start = [], 0
    for t, frames, labels in blocks:
        stats = block_statistics(frames, config.reference, start)
        parts.append((np.asarray(t, dtype=float), stats, np.asarray(labels, dtype=bool)))
        start += len(frames)
    return _columns(parts)


def band_positions(plan) -> dict:
    """Position of each band in the plan, in order of first appearance."""
    band_pos = {}
    for c in plan:
        band_pos.setdefault(c.band, len(band_pos))
    return band_pos


def merge_sweep(plan, results):
    """Merge per-channel (times, stats, labels) results, results[i] for plan[i].

    Returns the sweep's frames as columns (times, chan, stats, labels), frame i
    captured on plan[chan[i]], in canonical order: by (capture_time, band
    position, channel index), a stable sort, so equal keys keep plan order.
    """
    plan = list(plan)
    band_pos = band_positions(plan)
    times, stats, labels = _columns(results)
    chan = np.repeat(np.arange(len(plan)), [len(t) for t, _, _ in results])
    band = np.array([band_pos[c.band] for c in plan], dtype=np.intp)
    index = np.array([c.index_in_band for c in plan], dtype=np.intp)
    order = np.lexsort((index[chan], band[chan], times))
    return times[order], chan[order], stats[order], labels[order]


# --- record columns -----------------------------------------------------------

class RecordTable(NamedTuple):
    """Records as columns.

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
# runs byte-identical. Rows are written at most CSV_CHUNK_ROWS at a time.

_FLOAT = ".9g"
_TIME = ".6f"
CSV_CHUNK_ROWS = 8192


def _fmt(x: float) -> str:
    return format(x, _FLOAT)


def _chunks(n: int):
    return (slice(i, i + CSV_CHUNK_ROWS) for i in range(0, n, CSV_CHUNK_ROWS))


def _channel_fields(channels) -> list[str]:
    """Each channel's "band,channel_index,center_freq_mhz," row prefix, csv-quoted."""
    fields = []
    for c in channels:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            [c.band, c.index_in_band, _fmt(c.center_freq_mhz), ""]
        )
        fields.append(buf.getvalue()[:-1])
    return fields


def write_records(channels, blocks, config: DetectorConfig, path) -> None:
    """Write the record log from the kernel's rows, three records per frame.

    ``blocks`` yields (times, chan, stats) columns: frame i was captured at
    times[i] on channels[chan[i]], and stats[i] is its block_statistics row.
    Its ed, acf1 and cdist records follow in that (DETECTOR_TABLE) order.
    """
    heads = _channel_fields(channels)
    # each detector's "name," and ",threshold," text, made once a file
    (ed, ed_thr), (acf1, acf1_thr), (cdist, cdist_thr) = (
        (f"{d.name},", f",{d.threshold(config):{_FLOAT}},") for d in DETECTOR_TABLE)
    step = CSV_CHUNK_ROWS // len(DETECTOR_TABLE)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RECORD_CSV_HEADER + "\n")
        for times, chan, stats in blocks:
            present = decide_block(stats, config).astype(np.uint8)
            for i in range(0, len(times), step):
                rows = slice(i, i + step)
                # each frame's "time,band,channel_index,center_freq_mhz," text, made once
                frames = [f"{t:{_TIME}},{heads[c]}"
                          for t, c in zip(times[rows].tolist(), chan[rows].tolist())]
                fh.write("".join([
                    f"{h}{ed}{a:{_FLOAT}}{ed_thr}{x}\n{h}{acf1}{b:{_FLOAT}}{acf1_thr}{y}\n"
                    f"{h}{cdist}{e:{_FLOAT}}{cdist_thr}{z}\n"
                    for h, (a, b, e), (x, y, z) in zip(frames, stats[rows].tolist(),
                                                       present[rows].tolist())
                ]))


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


def read_record_table(path) -> RecordTable:
    """Parse a record log into columns. Raises CsvParseError naming path:line.

    Rows are parsed CSV_CHUNK_ROWS at a time into (rows x 6) float blocks, so
    no more than one chunk's rows are held as Python objects.
    """
    keys: dict = {}  # (band, index, freq) text -> channel id
    ids: dict = {}  # Channel -> channel id
    blocks = [np.empty((0, 6))]
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
                        c = keys[band, idx, freq] = ids.setdefault(channel, len(ids))
                    rows.append((time, c, _DETECTOR_POS[det], float(stat), float(thr),
                                 present == "1"))
                except ValueError as exc:
                    raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
            blocks.append(np.array(rows, dtype=float).reshape(-1, 6))
    cols = np.concatenate(blocks).T
    blocks.clear()
    return RecordTable(list(ids), cols[0], cols[1].astype(np.intp), cols[2].astype(np.intp),
                       cols[3], cols[4], cols[5].astype(bool))


def write_truth_columns(channels, times, chan, labels, path) -> None:
    """Write the truth log: row i is times[i], channels[chan[i]], labels[i]."""
    heads = _channel_fields(channels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRUTH_CSV_HEADER + "\n")
        for rows in _chunks(len(times)):
            fh.write("".join(
                f"{t:{_TIME}},{heads[c]}{p}\n" for t, c, p in zip(
                    times[rows].tolist(), chan[rows].tolist(),
                    labels[rows].astype(np.uint8).tolist(),
                )
            ))


def write_plan_csv(plan, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PLAN_CSV_HEADER.split(","))
        for c in plan:
            writer.writerow([c.band, c.index_in_band, _fmt(c.center_freq_mhz)])
