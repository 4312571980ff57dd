"""Three-detector scanning, the sweep merge and the record log's CSV surfaces.

Every scan of a frame produces exactly three records (energy, lag-1 ACF,
correlation distance), all computed on the identical frame so the detectors
are directly comparable. Inside the system a sweep is columns: each channel
scans to (times, stats, labels) arrays, with one ``block_statistics`` row
(ed, acf1, cdist) per frame, and ``merge_sweep`` orders all channels' frames
canonically by (capture_time, band position in the plan, channel index), so
concurrent per-channel scanning merges to the same log as a sequential run.
Records within a frame follow DETECTOR_TABLE order.

The record log is read and written as RecordTable columns, in chunks; the
ScanRecord and TruthRecord objects exist only at the API edges
(``scan_channel``, ``run_sweep``, ``read_records_csv`` and the
``write_*_csv`` wrappers).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import Channel, local_spacing_mhz
from .detectors import (
    DETECTOR_ED,
    DETECTOR_TABLE,
    DETECTORS,
    DetectorConfig,
    block_statistics,
    decide_block,
    frame_blocks,
)
from .errors import ConfigurationError, CsvParseError, RoutingError
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


@dataclass(frozen=True)
class TruthRecord:
    """Ground-truth presence label for one scan of one channel."""

    capture_time: float
    channel: Channel
    present: bool


def check_tuning(center_freq_hz: float, channel: Channel, freq_tol_mhz: float) -> None:
    """Raise RoutingError unless a capture at center_freq_hz is tuned to channel."""
    offset_mhz = abs(center_freq_hz / 1e6 - channel.center_freq_mhz)
    if offset_mhz > freq_tol_mhz:
        raise RoutingError(
            f"frame at {center_freq_hz / 1e6} MHz does not match channel "
            f"{channel.band}[{channel.index_in_band}] at {channel.center_freq_mhz} MHz "
            f"(tolerance {freq_tol_mhz} MHz)"
        )


def frame_records(times, channels, stats, config: DetectorConfig) -> list[ScanRecord]:
    """[ed, acf1, cdist] ScanRecords of each block_statistics row, in row order.

    ``times`` and ``channels`` give each row's capture time and Channel.
    """
    thresholds = [d.threshold(config) for d in DETECTOR_TABLE]
    records = []
    for t, channel, row, present in zip(times, channels, stats.tolist(),
                                        decide_block(stats, config).tolist()):
        dead = row[0] == 0.0
        records.extend(
            ScanRecord(t, channel, d.name, row[d.column], thr, present[d.column],
                       degenerate=dead and d.name != DETECTOR_ED)
            for d, thr in zip(DETECTOR_TABLE, thresholds)
        )
    return records


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
    return frame_records([frame.capture_time], [channel], stats, config)


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


def _pair_blocks(pairs):
    """(frame, truth_label) pairs as (times, frames, labels) blocks."""
    done = 0
    for chunk, frames in frame_blocks([frame for frame, _ in pairs]):
        labels = [label for _, label in pairs[done:done + len(chunk)]]
        yield [f.capture_time for f in chunk], frames, labels
        done += len(chunk)


def run_sweep(timelines, config: DetectorConfig, plan) -> tuple[list[ScanRecord], list[TruthRecord]]:
    """Scan every plan channel's timeline; returns (record log, truth log).

    ``timelines`` maps each Channel to its sequence of (frame, truth_label)
    pairs; each frame must be tuned to its channel within half the local
    channel spacing. Records come back in canonical order; truth records
    mirror the scan order with one entry per frame.
    """
    plan = list(plan)
    results = []
    for channel in plan:
        if channel not in timelines:
            raise ConfigurationError(
                f"no frame source for channel {channel.band}[{channel.index_in_band}]"
            )
        pairs = list(timelines[channel])
        tol = local_spacing_mhz(plan, channel) / 2.0
        for frame, _ in pairs:
            check_tuning(frame.center_freq_hz, channel, tol)
        results.append(scan_blocks(_pair_blocks(pairs), config))
    times, chan, stats, labels = merge_sweep(plan, results)
    channels = [plan[i] for i in chan.tolist()]
    truths = [TruthRecord(t, c, label)
              for t, c, label in zip(times.tolist(), channels, labels.tolist())]
    return frame_records(times.tolist(), channels, stats, config), truths


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


def frame_table(channels, times, chan, stats, config: DetectorConfig) -> RecordTable:
    """The [ed, acf1, cdist] records of each block_statistics row, in row order.

    Row i was captured at times[i] on channels[chan[i]].
    """
    k, n = len(DETECTOR_TABLE), len(times)
    return RecordTable(
        channels, np.repeat(times, k), np.repeat(chan, k), np.tile(np.arange(k), n),
        stats.ravel(), np.tile([d.threshold(config) for d in DETECTOR_TABLE], n),
        decide_block(stats, config).ravel(),
    )


def record_table(records) -> RecordTable:
    """ScanRecords as a RecordTable (equal channels share one id)."""
    records = list(records)
    ids: dict = {}
    chan = [ids.setdefault(r.channel, len(ids)) for r in records]
    return RecordTable(
        list(ids),
        np.array([r.capture_time for r in records], dtype=float),
        np.array(chan, dtype=np.intp),
        np.array([_DETECTOR_POS[r.detector] for r in records], dtype=np.intp),
        np.array([r.statistic for r in records], dtype=float),
        np.array([r.threshold for r in records], dtype=float),
        np.array([r.present for r in records], dtype=bool),
    )


# --- CSV surfaces -----------------------------------------------------------
# Floats are written with 9 significant digits ("%.9g"), times with
# microsecond resolution, presence as 1/0; fixed formatting keeps repeated
# runs byte-identical. Rows are rendered and written CSV_CHUNK_ROWS at a time.

_FLOAT = ".9g"
_TIME = ".6f"
CSV_CHUNK_ROWS = 8192


def _fmt(x: float) -> str:
    return format(x, _FLOAT)


def _fmt_time(t: float) -> str:
    return format(t, _TIME)


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


def write_record_tables(tables, path) -> None:
    """Write the record log: the rows of each RecordTable, in order."""
    dets = [f"{name}," for name in DETECTORS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RECORD_CSV_HEADER + "\n")
        for table in tables:
            heads = _channel_fields(table.channels)
            for rows in _chunks(len(table.time)):
                fh.write("".join(
                    f"{t:{_TIME}},{heads[c]}{dets[d]}{s:{_FLOAT}},{thr:{_FLOAT}},{p}\n"
                    for t, c, d, s, thr, p in zip(
                        table.time[rows].tolist(), table.chan[rows].tolist(),
                        table.det[rows].tolist(), table.statistic[rows].tolist(),
                        table.threshold[rows].tolist(),
                        table.present[rows].astype(np.uint8).tolist(),
                    )
                ))


def write_records_csv(records, path) -> None:
    """Write ScanRecords as the record log."""
    write_record_tables([record_table(records)], path)


def read_record_table(path) -> RecordTable:
    """Parse a record log into columns. Raises CsvParseError naming path:line."""
    keys: dict = {}  # (band, index, freq) text -> channel id
    ids: dict = {}  # Channel -> channel id
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and header != RECORD_CSV_HEADER.split(","):
            raise CsvParseError(f"{path}:1: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
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
    cols = np.array(rows, dtype=float).reshape(-1, 6).T
    return RecordTable(list(ids), cols[0], cols[1].astype(np.intp), cols[2].astype(np.intp),
                       cols[3], cols[4], cols[5].astype(bool))


def read_records_csv(path) -> list[ScanRecord]:
    """Parse a record log into ScanRecords. Raises CsvParseError naming path:line."""
    table = read_record_table(path)
    return [
        ScanRecord(t, table.channels[c], DETECTORS[d], s, thr, p)
        for t, c, d, s, thr, p in zip(
            table.time.tolist(), table.chan.tolist(), table.det.tolist(),
            table.statistic.tolist(), table.threshold.tolist(), table.present.tolist(),
        )
    ]


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


def write_truth_csv(truths, path) -> None:
    """Write TruthRecords as the truth log."""
    truths = list(truths)
    ids: dict = {}
    chan = np.array([ids.setdefault(tr.channel, len(ids)) for tr in truths], dtype=np.intp)
    write_truth_columns(list(ids), np.array([tr.capture_time for tr in truths], dtype=float),
                        chan, np.array([tr.present for tr in truths], dtype=bool), path)


def write_plan_csv(plan, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PLAN_CSV_HEADER.split(","))
        for c in plan:
            writer.writerow([c.band, c.index_in_band, _fmt(c.center_freq_mhz)])
