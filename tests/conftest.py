import csv
import io
import math

import numpy as np
import pytest

from occuscan import ComplexFrame
from occuscan.detectors import DETECTOR_TABLE, DETECTORS, block_statistics, decide_block
from occuscan.iq import BLOCK_FRAMES
from occuscan.scan import (RECORD_CSV_HEADER, TRUTH_CSV_HEADER, RecordTable, read_record_chunks,
                           write_plan_csv, write_records)
from occuscan.synth import mixed_blocks, snr_scale


def make_frame(samples, rate=1e6, freq=100e6, t=0.0) -> ComplexFrame:
    return ComplexFrame(
        samples=np.asarray(samples, dtype=np.complex128),
        sample_rate_hz=rate,
        center_freq_hz=freq,
        capture_time=t,
    )


def record_table(channels, times, chan, stats, config) -> RecordTable:
    """The [ed, acf1, cdist] records of each block_statistics row, in row order.

    Row i was captured at times[i] on channels[chan[i]]. One array per record
    field, built with numpy: the reference for the records the commands write.
    """
    k, n = len(DETECTOR_TABLE), len(times)
    return RecordTable(
        channels, np.repeat(times, k), np.repeat(chan, k), np.tile(np.arange(k), n),
        stats.ravel(), np.tile([d.threshold(config) for d in DETECTOR_TABLE], n),
        decide_block(stats, config).ravel(),
    )


def write_record_tables(tables, path) -> None:
    """Write the rows of each RecordTable as a record log, one record at a time.

    The per-record renderer: the byte reference for ``scan.write_records``,
    and the writer of record logs that hold arbitrary records.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RECORD_CSV_HEADER + "\n")
        for table in tables:
            heads = []
            for c in table.channels:
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerow(
                    [c.band, c.index_in_band, f"{c.center_freq_mhz:.9g}", ""])
                heads.append(buf.getvalue()[:-1])
            fh.write("".join(
                f"{t:.6f},{heads[c]}{DETECTORS[d]},{s:.9g},{thr:.9g},{int(p)}\n"
                for t, c, d, s, thr, p in zip(
                    table.time.tolist(), table.chan.tolist(), table.det.tolist(),
                    table.statistic.tolist(), table.threshold.tolist(), table.present.tolist(),
                )
            ))


def read_record_table(path) -> RecordTable:
    """A record log with at least one record as one RecordTable: its chunks concatenated."""
    chunks = list(read_record_chunks(path))
    return RecordTable(chunks[-1].channels,
                       *map(np.concatenate, zip(*(chunk[1:] for chunk in chunks))))


# --- the per-channel sweep: the byte reference for simulate's time-major sweep ---

def timeline_blocks(schedule, signal, noise, snr_db, frame_len, frame_interval_s, total_s, *,
                    start_time=0.0):
    """One channel's whole sweep as (times, frames, labels) blocks of <= BLOCK_FRAMES rows."""
    n_frames = int(math.floor(total_s / frame_interval_s + 1e-9))
    alpha = snr_scale(signal.nominal_power, noise.total_power, snr_db) \
        if signal.kind != "none" else 0.0
    times = start_time + np.arange(n_frames) * frame_interval_s
    labels = np.array([schedule.is_on(t - start_time) for t in times.tolist()], dtype=bool)
    blocks = mixed_blocks(signal, noise, alpha, frame_len, range(n_frames), labels)
    for start, frames in zip(range(0, n_frames, BLOCK_FRAMES), blocks):
        rows = slice(start, start + len(frames))
        yield times[rows], frames, labels[rows]


def scan_blocks(blocks, config):
    """One channel's (times, frames, labels) blocks scanned to (times, stats, labels) columns."""
    parts, start = [], 0
    for t, frames, labels in blocks:
        parts.append((t, block_statistics(frames, config.reference, start), labels))
        start += len(frames)
    empty = (np.empty(0), np.empty((0, len(DETECTOR_TABLE))), np.empty(0, dtype=bool))
    times, stats, labels = (np.concatenate(col) for col in zip(empty, *parts))
    return times, stats, labels


def merge_sweep(plan, results):
    """Per-channel (times, stats, labels) results, results[i] for plan[i], as one sweep.

    Returns columns (times, chan, stats, labels) sorted stably by (capture
    time, band position, channel index).
    """
    band_pos = {}
    for c in plan:
        band_pos.setdefault(c.band, len(band_pos))
    times, stats, labels = (np.concatenate(col) for col in zip(*results))
    chan = np.repeat(np.arange(len(plan)), [len(t) for t, _, _ in results])
    band = np.array([band_pos[c.band] for c in plan], dtype=np.intp)
    index = np.array([c.index_in_band for c in plan], dtype=np.intp)
    order = np.lexsort((index[chan], band[chan], times))
    return times[order], chan[order], stats[order], labels[order]


def write_reference_sweep(scenario, out) -> None:
    """Write a scenario's plan.csv, records.csv and truth.csv on the per-channel path.

    Each channel's timeline is scanned on its own, then all are merged and
    sorted, and the truth rows are rendered by csv.writer.
    """
    plan, config = scenario.plan(), scenario.detector_config()
    results = [scan_blocks(timeline_blocks(
        p.schedule, p.signal, p.noise, p.snr_db, scenario.frame_len(),
        scenario.frame_interval_s(), scenario.data["total_s"], start_time=scenario.start_time_unix),
        config) for p in scenario.sweep_params()]
    times, chan, stats, labels = merge_sweep(plan, results)
    out.mkdir(parents=True, exist_ok=True)
    write_plan_csv(plan, out / "plan.csv")
    write_records(plan, [(times, chan, stats)], config, out / "records.csv")
    with open(out / "truth.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRUTH_CSV_HEADER.split(","))
        for t, c, present in zip(times.tolist(), chan.tolist(), labels.tolist()):
            writer.writerow([f"{t:.6f}", plan[c].band, plan[c].index_in_band,
                             f"{plan[c].center_freq_mhz:.9g}", int(present)])


@pytest.fixture
def frame_factory():
    return make_frame


def pytest_configure(config):
    config.criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run, outside capture."""
    lines = getattr(config, "criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
