"""Command-line surface: calibrate, simulate, analyze, report, eval.

Every command is deterministic given its inputs and the master seed; CSV
outputs are byte-identical across repeated runs and across --workers counts.
``simulate`` makes its frames in record-log order, a frame window of a run of
channels a task, and writes each window as it comes; ``eval`` parallelizes
over chunks of trial indices. Both are pure functions of derived seeds.
Streams hold one block: ``simulate`` drops a window's run parts once they
are stitched and the window before it makes the next, and ``analyze`` keeps
only a recording block's statistics once they are made.
Start-up loads only what the command runs: the module sets OpenBLAS to one
thread and keeps OpenSSL's ``_hashlib`` out before numpy loads, each command
imports its own modules (``report`` loads no YAML parser and no synthesis),
and the process pool is imported only when --workers > 1. A pool has at
most one process per task.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import closing, contextmanager
from functools import partial
from itertools import islice
from pathlib import Path

# One BLAS thread, set before numpy loads and whatever the environment says.
# The only BLAS call occuscan makes is one frame's dot product (np.vecdot's
# row dots in detectors._acf_block), so a thread pool only adds start-up
# cost. Above 10,000 samples a threaded dot product also splits the sum and
# changes its bits: they matched at 1,024 and 8,192 samples and differed at
# 16,384, 65,536 and 262,144, which would make outputs depend on the host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# No OpenSSL either: numpy.random imports secrets, hence hmac and hashlib, which
# would map _hashlib and libcrypto (3.6 MB of RSS, about 5 ms) into every process
# that draws. With None here the import raises ImportError, hashlib and hmac fall
# back to CPython's built-in hashes, and secrets needs only hmac.compare_digest;
# occuscan never asks numpy for OS entropy. A _hashlib already loaded stays.
sys.modules.setdefault("_hashlib", None)

from .errors import OccuscanError, SampleDataError, UsageError

# The most pool processes --workers may ask for. With the fork start method a pool
# starts all of its processes at the first task, and on the example scenario each
# peaks near 31 MB, so 64 come to about 2 GB; a larger count only risks exhausting
# the host's memory or process ids. A constant, not os.cpu_count(), so a command
# line that runs on one host runs on any.
MAX_WORKERS = 64


def _check_options(args) -> None:
    """Reject out-of-range numeric options before any work starts."""
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed <= 2**64 - 1:
        raise UsageError(f"--seed: must lie in [0, 2**64 - 1], got {seed}")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise UsageError(f"--workers: must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise UsageError(f"--workers: must be at most {MAX_WORKERS}, got {workers}")
    bins = getattr(args, "bins", 1.0)
    if not (math.isfinite(bins) and bins > 0):
        raise UsageError(f"--bins: must be a finite number > 0, got {bins}")
    center = getattr(args, "center_mhz", 1.0)
    if not (math.isfinite(center) and center > 0):
        raise UsageError(f"--center-mhz: must be a finite number > 0, got {center}")
    tol = getattr(args, "freq_tol_mhz", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"--freq-tol-mhz: must be a finite number >= 0, got {tol}")


def _load_scenario(args):
    from .scenario import Scenario

    scenario = Scenario.load(args.scenario)
    if getattr(args, "seed", None) is not None:  # in range: _check_options checked it
        scenario.master_seed = args.seed
    return scenario


def __getattr__(name: str):
    # the process pool is imported on first use, not at start-up: the import
    # costs about 20 ms (2-vCPU host), and only --workers > 1 needs it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _map(fn, tasks, n_tasks: int, workers: int):
    """fn(t) for each of the n_tasks tasks, in order and lazily.

    With workers > 1 a pool of min(workers, n_tasks) processes runs them, so no
    process starts that would get no task, and at most two results a process
    wait at a time. The pool class is looked up as this module's
    ProcessPoolExecutor attribute, so a tool that replaces the attribute
    (bench/tracer.py traces the pool's tasks that way) has its class used.
    """
    if workers == 1 or n_tasks == 0:
        yield from map(fn, tasks)
        return
    workers = min(workers, n_tasks)
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
        ahead = []  # one pool.map a task, so tasks are taken only as results are read
        for task in tasks:
            ahead.append(pool.map(fn, [task]))
            if len(ahead) >= 2 * workers:
                yield from ahead.pop(0)
        for results in ahead:
            yield from results


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _replace_on_success(path: Path):
    """Yield a temporary sibling path; it replaces ``path`` only if the block succeeds."""
    part = path.with_name(path.name + ".part")
    try:
        yield part
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


# --- calibrate ---------------------------------------------------------------

def cmd_calibrate(args) -> int:
    from .detectors import (calibrate_ed_threshold_blocks, calibrate_reference_blocks,
                            save_reference)
    from .synth import OccupancySchedule, channel_windows

    scenario = _load_scenario(args)
    cal = scenario.calibration()
    out = _out_dir(args)
    n, n_ref = scenario.frame_len(), cal["reference_frames"]

    def rows(snr_db, frames):  # a one-row spec table, always on: every frame mixed at snr_db
        table = ([(cal["signal"], cal["noise"], OccupancySchedule(1.0, ((0.0, 1.0),)), snr_db)],
                 [0], [cal["signal"].seed], [cal["noise"].seed])
        return (block for _, block, _ in channel_windows(table, n, 1.0, frames))

    # threshold frames are drawn past the reference indices so the quantile
    # never sees the training noise
    noise_only = range(n_ref, n_ref + cal["threshold_frames"])
    try:
        reference = calibrate_reference_blocks(rows(cal["snr_db"], range(n_ref)),
                                               cal["acf_lags"])
        lambda_ed = calibrate_ed_threshold_blocks(rows(-math.inf, noise_only),
                                                  cal["target_pfa"], n_ref)
    except SampleDataError as exc:
        raise SampleDataError(f"calibration: {exc}") from exc
    ref_path = out / "reference.txt"
    save_reference(reference, ref_path)

    print(f"reference={ref_path}")
    print(f"lambda_ed={lambda_ed!r}")
    return 0


# --- simulate ----------------------------------------------------------------

RUN_CHANNELS = 32  # a pool task makes one frame window of this many consecutive plan channels


def _sweep_window(task):
    """A frame window of a run of channels: its times, (F x C x 3) statistics and (F x C)
    labels, or a list of its bad frames' (frame, channel in the run, message). Runs in workers."""
    import numpy as np

    from .detectors import block_statistics
    from .synth import channel_windows

    frames, table, config, n, interval, start = task
    stats, labels, errors = [], [], []
    for j, (times, rows, on) in enumerate(
            channel_windows(table, n, interval, frames, start_time=start)):
        labels.append(on)
        try:
            stats.append(block_statistics(rows, config.reference, frames.start))
        except SampleDataError as exc:
            errors.append((exc.frame, j, str(exc)))
    return errors or (times, np.stack(stats, axis=1), np.stack(labels, axis=1))


def _sweep_blocks(plan, table, config, n, interval, n_frames, start, workers):
    """(times, stats, labels) frame-major blocks of the plan, a frame window each: times (F),
    stats (F x C x 3) and labels (F x C), plan[i] drawn from row i of the spec table.

    Channels share one time grid: frame k of each in plan order, then frame k + 1,
    is the record log's order, so nothing is sorted. A task is a window of a run: its
    slice of the columns, with only the specs it uses. A window is held from its
    stitching until the caller asks for the next one: no name here keeps it."""
    import numpy as np

    from .iq import BLOCK_FRAMES

    specs, spec, signal_seeds, noise_seeds = table
    runs = []
    for i in range(0, len(plan), RUN_CHANNELS):
        used, index = np.unique(spec[i:i + RUN_CHANNELS], return_inverse=True)
        runs.append(([specs[s] for s in used.tolist()], index,
                     signal_seeds[i:i + RUN_CHANNELS], noise_seeds[i:i + RUN_CHANNELS]))
    frames = range(n_frames)
    windows = frames[::BLOCK_FRAMES] if plan else frames[:0]  # no runs, no blocks
    tasks = ((frames[k:k + BLOCK_FRAMES], r, config, n, interval, start)
             for k in windows for r in runs)
    with closing(_map(_sweep_window, tasks, len(windows) * len(runs), workers)) as results:
        for _ in windows:
            yield _stitch(list(islice(results, len(runs))), plan)


def _stitch(parts, plan):
    """One window's (times, stats, labels) block: its runs' parts joined along the channel
    axis. A bad frame raises, the first in record-log order named by its channel."""
    import numpy as np

    bad = [(frame, r * RUN_CHANNELS + j, why) for r, part in enumerate(parts)
           if isinstance(part, list) for frame, j, why in part]
    if bad:
        frame, i, why = min(bad)  # (frame, channel): record-log order
        raise SampleDataError(f"channel {plan[i].band}:{plan[i].index_in_band}: {why}", frame)
    stats, labels = (np.concatenate(col, axis=1) for col in list(zip(*parts))[1:])
    return parts[0][0], stats, labels  # the times are the same in every run's part


def cmd_simulate(args) -> int:
    from .detectors import DETECTOR_TABLE
    from .scan import channel_fields, write_plan_csv, write_records

    scenario = _load_scenario(args)
    plan = scenario.plan()
    config = scenario.detector_config()
    n, n_frames = scenario.frame_len(), scenario.sweep_frames()
    blocks = _sweep_blocks(plan, scenario.sweep_params(), config, n, scenario.frame_interval_s(),
                           n_frames, scenario.start_time_unix, args.workers)
    out = _out_dir(args)
    with _replace_on_success(out / "plan.csv") as plan_csv, \
            _replace_on_success(out / "records.csv") as records, \
            _replace_on_success(out / "truth.csv") as truth, closing(blocks):
        heads = channel_fields(plan)
        write_records(heads, blocks, config, records, truth)
        write_plan_csv(heads, plan_csv)
    print(f"wrote {len(DETECTOR_TABLE) * n_frames * len(plan)} records for {len(plan)} "
          f"channels to {out}")
    return 0


# --- analyze -----------------------------------------------------------------

def cmd_analyze(args) -> int:
    from .channels import Channel
    from .detectors import DETECTOR_TABLE, block_statistics
    from .iq import stream_recording
    from .scan import channel_fields, check_tuning, write_records

    scenario = _load_scenario(args)
    config = scenario.detector_config()
    meta, discarded, blocks = stream_recording(args.iq, args.meta, scenario.frame_len())
    channel = Channel("recording", 0, args.center_mhz)
    check_tuning(meta.center_freq_hz, channel, args.freq_tol_mhz)
    out = _out_dir(args)
    frames = 0

    def rows():
        nonlocal frames
        for times, block in blocks:
            stats = block_statistics(block, config.reference, frames)
            frames += len(block)
            del block  # only its statistics are held while the next block is read
            yield times, stats[:, None]  # one channel
            if args.verbose:
                for t, (ed, acf1, cdist) in zip(times.tolist(), stats.tolist()):
                    # the unscaled distance, cdist * sqrt(L); absent for a zero-energy frame
                    raw = f" raw_dist={cdist * math.sqrt(config.acf_lags):.9g}" if ed else ""
                    print(f"t={t:.6f} ed={ed:.9g} acf1={acf1:.9g} cdist={cdist:.9g}{raw}")

    with _replace_on_success(out / "records.csv") as part:
        write_records(channel_fields([channel]), rows(), config, part)
    print(f"analyzed {frames} frames ({discarded} samples discarded), "
          f"wrote {len(DETECTOR_TABLE) * frames} records")
    return 0


# --- report ------------------------------------------------------------------

def cmd_report(args) -> int:
    from .report import aggregate_table, write_occupancy_csv, write_plot_data
    from .scan import read_record_chunks

    try:
        cells = aggregate_table(read_record_chunks(args.records), args.bins)
    except ValueError as exc:  # a bad record raises CsvParseError, so only the bin length is left
        raise UsageError(f"--bins: {exc}") from exc
    out = _out_dir(args)
    plots = write_plot_data(cells, out / "plots")
    write_occupancy_csv(cells, args.bins, out / "occupancy.csv")
    print(f"wrote {len(cells.chan)} occupancy cells and {plots} plot files to {out}")
    return 0


# --- eval --------------------------------------------------------------------

def cmd_eval(args) -> int:
    import numpy as np

    from .detectors import DETECTOR_TABLE
    from .evaluate import operating_points, shared_trial_statistics, write_eval_csv
    from .iq import BLOCK_FRAMES

    scenario = _load_scenario(args)
    config = scenario.detector_config()
    ev = scenario.eval_settings()
    out = _out_dir(args)

    points, roc_snr_db = ev["snr_db_points"], ev["roc_snr_db"]
    snrs = list(dict.fromkeys([*points, roc_snr_db]))
    run = partial(shared_trial_statistics, config, ev["signal"], ev["noise"], snrs,
                  ev["frame_len"])
    # BLOCK_FRAMES-aligned chunks hold the same kernel blocks as one pass
    step = -(-ev["trials"] // (BLOCK_FRAMES * args.workers)) * BLOCK_FRAMES
    chunks = [range(i, min(i + step, ev["trials"])) for i in range(0, ev["trials"], step)]
    try:
        stats = np.concatenate(list(_map(run, chunks, len(chunks), args.workers)), axis=1)
    except SampleDataError as exc:
        raise SampleDataError(f"eval: {exc}") from exc

    def ops(label, d, snr_db, thresholds):
        h1 = stats[1 + snrs.index(snr_db), :, d.column]
        pd, pfa = operating_points(d.name, stats[0, :, d.column], h1, thresholds)
        return [(d.name, label, snr_db, thr, stats.shape[1], p, f)
                for thr, p, f in zip(thresholds, pd.tolist(), pfa.tolist())]

    rows = [op for d in DETECTOR_TABLE for snr_db in points
            for op in ops("point", d, snr_db, [d.threshold(config)])]
    rows += [op for d in DETECTOR_TABLE if d.name in ev["roc_thresholds"]
             for op in ops("roc", d, roc_snr_db, ev["roc_thresholds"][d.name])]
    write_eval_csv(rows, out / "eval.csv")
    print(f"wrote {len(rows)} operating points to {out / 'eval.csv'}")
    return 0


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occuscan",
        description="Spectrum occupancy scanning toolkit: simulate, analyze, "
        "calibrate and evaluate three sensing detectors over a channel plan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario master_seed (u64)")

    p_cal = sub.add_parser("calibrate", help="write the reference ACF vector and "
                           "print the calibrated energy threshold")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", help="run the synthetic sweep, write record "
                           "and truth CSVs")
    common(p_sim)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="parallel channel workers (output is identical for any count)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="scan an IQ recording offline")
    common(p_ana, seed=False)  # analyze draws nothing
    p_ana.add_argument("--iq", required=True, help=".iq payload path")
    p_ana.add_argument("--meta", required=True, help=".iq.meta sidecar path")
    p_ana.add_argument("--center-mhz", type=float, required=True,
                       dest="center_mhz", help="channel center frequency in MHz")
    p_ana.add_argument("--freq-tol-mhz", type=float, default=1.0, dest="freq_tol_mhz")
    p_ana.add_argument("--verbose", action="store_true",
                       help="print per-frame statistics incl. the raw (unscaled) "
                       "correlation distance raw_dist = cdist * sqrt(acf_lags)")
    p_ana.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="aggregate a record CSV into occupancy "
                           "cells and plot data")
    p_rep.add_argument("--records", required=True, help="record CSV path")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--bins", type=float, default=3600.0,
                       help="time bin length in seconds")
    p_rep.set_defaults(func=cmd_report)

    p_ev = sub.add_parser("eval", help="Monte Carlo Pd/Pfa measurement and ROC curves")
    common(p_ev)
    p_ev.add_argument("--workers", type=int, default=1,
                      help="parallel trial-chunk workers (output is identical for any count)")
    p_ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (OccuscanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
