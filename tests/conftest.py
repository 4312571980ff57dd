import csv
import io

import numpy as np
import pytest

from occuscan import ComplexFrame
from occuscan.detectors import DETECTOR_TABLE, DETECTORS, decide_block
from occuscan.scan import RECORD_CSV_HEADER, RecordTable, read_record_chunks


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
