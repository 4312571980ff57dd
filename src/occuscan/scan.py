"""Three-detector scanning and the append-only record log.

Every scan of a frame produces exactly three ScanRecords (energy, lag-1 ACF,
correlation distance), all computed on the identical frame so the detectors
are directly comparable. Frames go through the detector kernel in blocks of
at most BLOCK_FRAMES (``scan_frames``); ``scan_channel`` is the one-frame
form of the public API. Records sort canonically by (capture_time,
band position in the plan, channel index, detector position), which makes
concurrent per-channel scanning merge to the same log as a sequential run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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


def block_records(times, channel: Channel, stats, config: DetectorConfig) -> list[ScanRecord]:
    """[ed, acf1, cdist] records of each row of a block_statistics result, in row order."""
    thresholds = [d.threshold(config) for d in DETECTOR_TABLE]
    records = []
    for t, row, present in zip(times, stats.tolist(), decide_block(stats, config).tolist()):
        dead = row[0] == 0.0
        records.extend(
            ScanRecord(t, channel, d.name, row[d.column], thr, present[d.column],
                       degenerate=dead and d.name != DETECTOR_ED)
            for d, thr in zip(DETECTOR_TABLE, thresholds)
        )
    return records


def scan_frames(
    frames,
    channel: Channel,
    config: DetectorConfig,
    freq_tol_mhz: float = 1.0,
) -> list[ScanRecord]:
    """Run all three detectors on each frame; [ed, acf1, cdist] records per frame.

    Every frame must be tuned to the channel within freq_tol_mhz. A
    zero-energy frame (dead channel) is not an error: the energy record is
    normal (statistic 0) and the ACF-based records decide absent with the
    degenerate marker set.
    """
    records = []
    for chunk, block in frame_blocks(frames):
        for frame in chunk:
            check_tuning(frame.center_freq_hz, channel, freq_tol_mhz)
        stats = block_statistics(block, config.reference)
        records.extend(block_records([f.capture_time for f in chunk], channel, stats, config))
    return records


def scan_channel(
    frame: ComplexFrame,
    channel: Channel,
    config: DetectorConfig,
    freq_tol_mhz: float = 1.0,
) -> list[ScanRecord]:
    """Run all three detectors on one frame; returns [ed, acf1, cdist] records.

    The one-frame form of ``scan_frames``, which scans many frames faster.
    """
    return scan_frames([frame], channel, config, freq_tol_mhz)


def band_positions(plan) -> dict:
    """Position of each band in the plan, in order of first appearance."""
    band_pos = {}
    for c in plan:
        band_pos.setdefault(c.band, len(band_pos))
    return band_pos


def record_sort_key(plan):
    """Canonical record ordering for a given plan."""
    band_pos = band_positions(plan)
    det_pos = {d: i for i, d in enumerate(DETECTORS)}

    def key(rec: ScanRecord):
        return (
            rec.capture_time,
            band_pos.get(rec.channel.band, len(band_pos)),
            rec.channel.index_in_band,
            det_pos[rec.detector],
        )

    return key


def merge_sweep(plan, results) -> tuple[list[ScanRecord], list[TruthRecord]]:
    """Merge per-channel (records, [(time, channel, label)]) results in canonical order."""
    records = [r for recs, _ in results for r in recs]
    records.sort(key=record_sort_key(plan))
    band_pos = band_positions(plan)
    truths = [TruthRecord(t, c, bool(label)) for _, trs in results for t, c, label in trs]
    truths.sort(key=lambda tr: (tr.capture_time, band_pos[tr.channel.band],
                                tr.channel.index_in_band))
    return records, truths


def scan_timeline(timeline, channel: Channel, config: DetectorConfig, freq_tol_mhz=1.0):
    """Scan one channel's (frame, truth_label) pairs: (records, [(time, channel, label)])."""
    pairs = list(timeline)
    records = scan_frames([frame for frame, _ in pairs], channel, config, freq_tol_mhz)
    return records, [(frame.capture_time, channel, label) for frame, label in pairs]


def run_sweep(timelines, config: DetectorConfig, plan) -> tuple[list[ScanRecord], list[TruthRecord]]:
    """Scan every plan channel's timeline; returns (record log, truth log).

    ``timelines`` maps each Channel to its sequence of (frame, truth_label)
    pairs. Records come back in canonical order; truth records mirror the
    scan order with one entry per frame.
    """
    plan = list(plan)
    for channel in plan:
        if channel not in timelines:
            raise ConfigurationError(
                f"no frame source for channel {channel.band}[{channel.index_in_band}]"
            )
    return merge_sweep(plan, [
        scan_timeline(timelines[c], c, config, local_spacing_mhz(plan, c) / 2.0) for c in plan
    ])


# --- CSV surfaces -----------------------------------------------------------
# Floats are written with 9 significant digits ("%.9g"), times with
# microsecond resolution, presence as 1/0; fixed formatting keeps repeated
# runs byte-identical.

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _fmt_time(t: float) -> str:
    return f"{t:.6f}"


def write_records_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_CSV_HEADER.split(","))
        for r in records:
            writer.writerow(
                [
                    _fmt_time(r.capture_time),
                    r.channel.band,
                    r.channel.index_in_band,
                    _fmt(r.channel.center_freq_mhz),
                    r.detector,
                    _fmt(r.statistic),
                    _fmt(r.threshold),
                    1 if r.present else 0,
                ]
            )


def read_records_csv(path) -> list[ScanRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if row != RECORD_CSV_HEADER.split(","):
                    raise CsvParseError(f"{path}:1: unexpected header {row}")
                continue
            if not row:
                continue
            try:
                t, band, idx, freq, det, stat, thr, present = row
                if det not in DETECTORS:
                    raise ValueError(f"unknown detector {det!r}")
                if present not in ("0", "1"):
                    raise ValueError(f"present must be 0 or 1, got {present!r}")
                records.append(
                    ScanRecord(
                        capture_time=float(t),
                        channel=Channel(band, int(idx), float(freq)),
                        detector=det,
                        statistic=float(stat),
                        threshold=float(thr),
                        present=present == "1",
                    )
                )
            except ValueError as exc:
                raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_truth_csv(truths, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRUTH_CSV_HEADER.split(","))
        for tr in truths:
            writer.writerow(
                [
                    _fmt_time(tr.capture_time),
                    tr.channel.band,
                    tr.channel.index_in_band,
                    _fmt(tr.channel.center_freq_mhz),
                    1 if tr.present else 0,
                ]
            )


def write_plan_csv(plan, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PLAN_CSV_HEADER.split(","))
        for c in plan:
            writer.writerow([c.band, c.index_in_band, _fmt(c.center_freq_mhz)])
