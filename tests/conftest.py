import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from occuscan import ComplexFrame
from occuscan.detectors import DETECTOR_TABLE, DETECTORS, block_statistics, decide_block
from occuscan.iq import BLOCK_FRAMES
from occuscan.scan import (PLAN_CSV_HEADER, RECORD_CSV_HEADER, TRUTH_CSV_HEADER, RecordTable,
                           read_record_chunks)
from occuscan.synth import noise_rows, signal_rows, snr_scale


def make_frame(samples, rate=1e6, freq=100e6, t=0.0) -> ComplexFrame:
    return ComplexFrame(
        samples=np.asarray(samples, dtype=np.complex128),
        sample_rate_hz=rate,
        center_freq_hz=freq,
        capture_time=t,
    )


def write_meta(meta_path, num_samples, rate=1e6, freq=100e6, start=0.0) -> None:
    """Write an .iq.meta sidecar: its four key=value lines, values as given."""
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"sample_rate_hz={rate!r}\ncenter_freq_hz={freq!r}\n"
                 f"start_time_unix={start!r}\nnum_samples={num_samples}\n")


def write_recording(frames, payload_path, meta_path) -> None:
    """Write frames as one recording, the way an SDR file sink records one.

    The payload holds every frame's samples as interleaved little-endian
    float32 I/Q pairs; the sidecar takes the first frame's sample rate,
    center frequency and capture time. Nothing checks that the frames agree.
    """
    samples = np.concatenate([f.samples for f in frames])
    samples.astype("<c8").tofile(payload_path)
    write_meta(meta_path, samples.size, frames[0].sample_rate_hz, frames[0].center_freq_hz,
               frames[0].capture_time)


def spec_table(channels):
    """The spec table of the given (signal, noise, schedule, snr_db) channels, a spec each,
    drawn with each channel's specs' own seeds: ``synth.channel_windows``' input."""
    return (list(channels), np.arange(len(channels)), [c[0].seed for c in channels],
            [c[1].seed for c in channels])


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
    """One channel's whole sweep as (times, frames, labels) blocks of <= BLOCK_FRAMES rows.

    A frame labeled present is alpha * signal + noise, summed here from ``noise_rows``
    and ``signal_rows`` rather than by the sweep's own mix."""
    n_frames = int(math.floor(total_s / frame_interval_s + 1e-9))
    alpha = snr_scale(signal.nominal_power, noise.total_power, snr_db) \
        if signal.kind != "none" else 0.0
    times = start_time + np.arange(n_frames) * frame_interval_s
    labels = np.array([any(a <= (t - start_time) % schedule.period_s < b
                           for a, b in schedule.on_intervals) for t in times.tolist()], dtype=bool)
    for start in range(0, n_frames, BLOCK_FRAMES):
        k = np.arange(start, min(start + BLOCK_FRAMES, n_frames))
        frames = noise_rows(frame_len, noise, k)
        on = k[labels[k]] if alpha else k[:0]  # the frames that get the signal
        with np.errstate(over="ignore", invalid="ignore"):
            frames[on - start] += alpha * signal_rows(frame_len, signal, on)
        yield times[k], frames, labels[k]


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

    Each channel's specs, given its seeds from the sweep_params columns, make its
    timeline, which is scanned on its own; then all are merged and sorted. The records
    are rendered by write_record_tables, the plan and truth rows by csv.writer.
    """
    plan, config = scenario.plan(), scenario.detector_config()
    specs, spec, signal_seeds, noise_seeds = scenario.sweep_params()
    results = []
    for i in range(len(plan)):
        signal, noise, schedule, snr_db = specs[spec[i]]
        results.append(scan_blocks(timeline_blocks(
            schedule, dataclasses.replace(signal, seed=int(signal_seeds[i])),
            dataclasses.replace(noise, seed=int(noise_seeds[i])), snr_db,
            scenario.frame_len(), scenario.frame_interval_s(), scenario.data["total_s"],
            start_time=scenario.start_time_unix), config))
    times, chan, stats, labels = merge_sweep(plan, results)
    out.mkdir(parents=True, exist_ok=True)
    write_record_tables([record_table(plan, times, chan, stats, config)], out / "records.csv")
    with open(out / "plan.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PLAN_CSV_HEADER.split(","))
        for c in plan:
            writer.writerow([c.band, c.index_in_band, f"{c.center_freq_mhz:.9g}"])
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
