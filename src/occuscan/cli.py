"""Command-line surface: calibrate, simulate, analyze, report, eval.

Every command is deterministic given its inputs and the master seed; CSV
outputs are byte-identical across repeated runs and across --workers counts.
``simulate`` makes its frames in record-log order, a task a frame window of a
slice of plan channels, and writes each window as it comes; ``eval``
parallelizes over chunks of trial indices. Both are pure functions of derived seeds.
Streams hold one block: ``simulate`` drops a window's run parts once they
are stitched and the window before it makes the next, and ``analyze`` keeps
only a recording block's statistics once they are made.
Start-up loads only what the command runs: the module sets OpenBLAS to one
thread and keeps OpenSSL's ``_hashlib`` out before numpy loads, each command
imports its own modules (``report`` runs on the standard library: no numpy,
no kernel, no YAML parser), and only --workers > 1 imports ``forkmap``, which
forks at most one worker a task and pickles no task.
The command and ``python -m occuscan.cli`` enter through ``run()``, which freezes the heap
before the exit; ``main()`` never does, so tests and library callers keep a collectable heap.
"""

from __future__ import annotations

import argparse
import gc
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

from .errors import OccuscanError, SampleDataError

# The most worker processes --workers may ask for. All of them fork at the first task,
# and on the example scenario each peaks near 29 MB, so 64 come to about 1.9 GB; a
# larger count only risks exhausting the host's memory or process ids. A constant,
# not os.cpu_count(), so a command line that runs on one host runs on any.
MAX_WORKERS = 64


def _check_options(args) -> None:
    """Reject out-of-range numeric options before any work starts."""
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed <= 2**64 - 1:
        raise OccuscanError(f"--seed: must lie in [0, 2**64 - 1], got {seed}")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise OccuscanError(f"--workers: must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise OccuscanError(f"--workers: must be at most {MAX_WORKERS}, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise OccuscanError(f"--workers: must be 1 where os.fork is missing, got {workers}")
    bins = getattr(args, "bins", 1.0)
    if not (math.isfinite(bins) and bins > 0):
        raise OccuscanError(f"--bins: must be a finite number > 0, got {bins}")
    center = getattr(args, "center_mhz", 1.0)
    if not (math.isfinite(center) and center > 0):
        raise OccuscanError(f"--center-mhz: must be a finite number > 0, got {center}")
    tol = getattr(args, "freq_tol_mhz", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise OccuscanError(f"--freq-tol-mhz: must be a finite number >= 0, got {tol}")


def _load_scenario(args):
    from .scenario import Scenario

    scenario = Scenario.load(args.scenario)
    if getattr(args, "seed", None) is not None:  # in range: _check_options checked it
        scenario.master_seed = args.seed
    return scenario


def _map(fn, tasks, n_tasks: int, workers: int):
    """fn(t) for each of the n_tasks tasks, in order and lazily: in this process with one
    worker, else in min(workers, n_tasks) forked ones (forkmap.fork_map)."""
    if workers == 1 or n_tasks == 0:
        yield from map(fn, tasks)
    else:
        from .forkmap import fork_map

        yield from fork_map(fn, tasks, n_tasks, workers)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OccuscanError(f"--out: {exc.strerror}: {exc.filename!r}") from exc
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
    import numpy as np

    from .detectors import (DETECTOR_TABLE, block_statistics, calibrate_reference_blocks,
                            save_reference)
    from .synth import trial_rows

    scenario = _load_scenario(args)
    cal = scenario.calibration()
    out = _out_dir(args)
    trials = partial(trial_rows, scenario.frame_len(), cal["signal"], cal["noise"])
    n_ref = cal["reference_frames"]
    noise_only = range(n_ref, n_ref + cal["threshold_frames"])
    # paired trials as eval draws them: H1 trials 0 .. n_ref - 1 train the reference, and the
    # H0 trials past them, unseen in training, give every detector's H0 sample in one pass
    try:
        reference = calibrate_reference_blocks(
            (rows for _, h, rows in trials([cal["snr_db"]], range(n_ref)) if h), cal["acf_lags"])
        h0 = np.concatenate([block_statistics(rows, reference, noise_only[i])
                             for i, _, rows in trials([], noise_only)])
    except SampleDataError as exc:
        raise SampleDataError(f"calibration: {exc}") from exc
    ref_path = out / "reference.txt"
    save_reference(reference, ref_path)

    print(f"reference={ref_path}")
    for d in DETECTOR_TABLE:  # named like the scenario's detector keys
        print(f"{d.threshold_field}={d.tune(h0[:, d.column], cal['target_pfa'])!r}")
    return 0


# --- simulate ----------------------------------------------------------------

RUN_CHANNELS = 32  # a task makes one frame window of this many consecutive plan channels


def _sweep_window(table, config, n, interval, start, task):
    """A task's frame window of its slice of plan channels, plan[i] drawn from row i of the
    spec table: its times, (F x C x 3) statistics and (F x C) labels, or a list of its bad
    frames' (frame, plan channel, message). Runs in workers."""
    import numpy as np

    from .detectors import block_statistics
    from .synth import channel_windows

    frames, channels = task
    stats, labels, errors = [], [], []
    for j, (times, rows, on) in enumerate(
            channel_windows(table, n, interval, frames, channels, start_time=start)):
        labels.append(on)
        try:
            stats.append(block_statistics(rows, config.reference, frames.start))
        except SampleDataError as exc:
            errors.append((exc.frame, channels.start + j, str(exc)))
    return errors or (times, np.stack(stats, axis=1), np.stack(labels, axis=1))


def _sweep_blocks(plan, table, config, n, interval, n_frames, start, workers):
    """(times, stats, labels) frame-major blocks of the plan, a frame window each: times (F),
    stats (F x C x 3) and labels (F x C), plan[i] drawn from row i of the spec table.

    Channels share one time grid: frame k of each in plan order, then frame k + 1,
    is the record log's order, so nothing is sorted. A task is a frame window and a slice
    of plan channels. A window is held from its stitching until the caller asks for the
    next one: no name here keeps it."""
    from .iq import BLOCK_FRAMES

    frames = range(n_frames)
    windows = frames[::BLOCK_FRAMES] if plan else frames[:0]  # no runs, no blocks
    runs = [slice(i, i + RUN_CHANNELS) for i in range(0, len(plan), RUN_CHANNELS)]
    tasks = ((frames[k:k + BLOCK_FRAMES], r) for k in windows for r in runs)
    window = partial(_sweep_window, table, config, n, interval, start)
    with closing(_map(window, tasks, len(windows) * len(runs), workers)) as results:
        for _ in windows:
            yield _stitch(list(islice(results, len(runs))), plan)


def _stitch(parts, plan):
    """One window's (times, stats, labels) block: its runs' parts joined along the channel
    axis. A bad frame raises, the first in record-log order named by its channel."""
    import numpy as np

    bad = [error for part in parts if isinstance(part, list) for error in part]
    if bad:
        frame, i, why = min(bad)  # (frame, plan channel): record-log order
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
    from .scan import read_records

    channels: list = []
    try:
        cells = aggregate_table(read_records(args.records, channels), channels, args.bins)
    except ValueError as exc:  # a bad record raises OccuscanError, so only the bin length is left
        raise OccuscanError(f"--bins: {exc}") from exc
    out = _out_dir(args)
    plots = write_plot_data(cells, out / "plots")
    write_occupancy_csv(cells, out / "occupancy.csv")
    print(f"wrote {len(cells.keys)} occupancy cells and {plots} plot files to {out}")
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
                           "print the calibrated lambda_ed, lambda_acf and gamma")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", help="run the synthetic sweep, write record, "
                           "truth and plan CSVs")
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
    except (OccuscanError, OSError) as exc:  # an unusable input path is named by its option
        paths = {v: k for k, v in vars(args).items() if k in ("scenario", "records", "iq", "meta")}
        option = paths.get(getattr(exc, "filename", None))
        why = f"--{option}: {exc.strerror}: {exc.filename!r}" if option else exc
        print(f"error: {why}", file=sys.stderr)
        return 1


def run():
    """Exit with main()'s code after a flush of stdout (one whose reader has gone is an error)
    and gc.freeze(), so the interpreter's last collection skips every object the command left."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # point stdout at devnull, where Python's own flush at exit goes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == 0:  # a failed command has printed its error line
            print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        code = 1
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
