"""Command-line surface: calibrate, simulate, analyze, report, eval.

Every command is deterministic given its inputs and the master seed; CSV
outputs are byte-identical across repeated runs and across --workers counts.
``simulate`` parallelizes over channels and ``eval`` over chunks of trial
indices; both are pure functions of derived seeds, merged in a fixed order.
Start-up loads only what the command runs: the module sets OpenBLAS to one
thread before numpy loads, each command imports its own modules (``report``
loads no YAML parser and no synthesis), and the process pool is imported
only when --workers > 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

# One BLAS thread, set before numpy loads and whatever the environment says.
# The only BLAS call occuscan makes is one frame's dot product (the stacked
# np.matmul in detectors._acf_block), so a thread pool only adds start-up
# cost. Above 10,000 samples a threaded dot product also splits the sum and
# changes its bits: they matched at 1,024 and 8,192 samples and differed at
# 16,384, 65,536 and 262,144, which would make outputs depend on the host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import OccuscanError, PlanError, SampleDataError, UsageError


def _check_options(args) -> None:
    """Reject out-of-range numeric options before any work starts."""
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed <= 2**64 - 1:
        raise UsageError(f"--seed: must lie in [0, 2**64 - 1], got {seed}")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise UsageError(f"--workers: must be >= 1, got {workers}")
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
    if getattr(args, "seed", None) is not None:
        data = dict(scenario.data)
        data["master_seed"] = args.seed
        scenario = Scenario(data, args.scenario)
    return scenario


def __getattr__(name: str):
    # the process pool is imported on first use, not at start-up: the import
    # costs about 20 ms (2-vCPU host), and only --workers > 1 needs it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _process_pool(workers: int):
    """A pool of ``workers`` processes, of the class this module's ProcessPoolExecutor names.

    Looked up as a module attribute, so a tool that replaces the attribute
    (bench/tracer.py traces the pool's tasks that way) has its class used.
    """
    return sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- calibrate ---------------------------------------------------------------

def cmd_calibrate(args) -> int:
    from .detectors import (calibrate_ed_threshold_blocks, calibrate_reference_blocks,
                            save_reference)
    from .synth import mixed_blocks, snr_scale

    scenario = _load_scenario(args)
    cal = scenario.calibration()
    out = _out_dir(args)
    n = scenario.frame_len()
    signal, noise, n_ref = cal["signal"], cal["noise"], cal["reference_frames"]

    alpha = snr_scale(signal.nominal_power, noise.total_power, cal["snr_db"])
    # threshold frames are drawn past the reference indices so the quantile
    # never sees the training noise
    noise_only = range(n_ref, n_ref + cal["threshold_frames"])
    try:
        reference = calibrate_reference_blocks(
            mixed_blocks(signal, noise, alpha, n, range(n_ref)), cal["acf_lags"])
        lambda_ed = calibrate_ed_threshold_blocks(
            mixed_blocks(signal, noise, 0.0, n, noise_only), cal["target_pfa"], n_ref)
    except SampleDataError as exc:
        raise SampleDataError(f"calibration: {exc}") from exc
    ref_path = out / "reference.txt"
    save_reference(reference, ref_path)

    print(f"reference={ref_path}")
    print(f"lambda_ed={lambda_ed!r}")
    return 0


# --- simulate ----------------------------------------------------------------

def _simulate_channel(task):
    """One channel's (times, stats, labels) columns. Runs in worker processes."""
    from .scan import scan_blocks
    from .synth import timeline_blocks

    channel, params, config, n, interval, total, start = task
    blocks = timeline_blocks(params.schedule, params.signal, params.noise, params.snr_db,
                             n, interval, total, start_time=start)
    try:
        return scan_blocks(blocks, config)
    except SampleDataError as exc:
        raise SampleDataError(f"channel {channel.band}:{channel.index_in_band}: {exc}") from exc


def cmd_simulate(args) -> int:
    from .detectors import DETECTOR_TABLE
    from .scan import (band_positions, frame_table, merge_sweep, write_plan_csv,
                       write_record_tables, write_truth_columns)

    scenario = _load_scenario(args)
    plan = scenario.plan()
    config = scenario.detector_config()
    n = scenario.frame_len()
    interval = scenario.frame_interval_s()
    total = scenario.total_s()

    band_pos = band_positions(plan)
    tasks = [
        (c, scenario.channel_params(c, band_pos[c.band]), config, n, interval, total,
         scenario.start_time_unix)
        for c in plan
    ]

    out = _out_dir(args)
    if args.workers > 1:
        with _process_pool(args.workers) as pool:
            results = list(pool.map(_simulate_channel, tasks))
    else:
        results = [_simulate_channel(t) for t in tasks]

    times, chan, stats, labels = merge_sweep(plan, results)

    write_plan_csv(plan, out / "plan.csv")
    write_record_tables([frame_table(plan, times, chan, stats, config)], out / "records.csv")
    write_truth_columns(plan, times, chan, labels, out / "truth.csv")
    print(f"wrote {len(DETECTOR_TABLE) * len(times)} records for {len(plan)} channels to {out}")
    return 0


# --- analyze -----------------------------------------------------------------

@contextmanager
def _replace_on_success(path: Path):
    """Yield a temporary sibling path; it replaces ``path`` only if the block succeeds."""
    part = path.with_name(path.name + ".part")
    try:
        yield part
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def cmd_analyze(args) -> int:
    import numpy as np

    from .channels import Channel
    from .detectors import DETECTOR_TABLE, block_statistics
    from .iq import stream_recording
    from .scan import check_tuning, frame_table, write_record_tables

    scenario = _load_scenario(args)
    out = _out_dir(args)
    config = scenario.detector_config()
    n = scenario.frame_len()

    meta, discarded, blocks = stream_recording(args.iq, args.meta, n)
    channels = [Channel("recording", 0, args.center_mhz)]
    check_tuning(meta.center_freq_hz, channels[0], args.freq_tol_mhz)
    frames = 0

    def tables():
        nonlocal frames
        for block in blocks:
            k = np.arange(frames, frames + len(block))
            times = meta.start_time + k * n / meta.sample_rate_hz
            stats = block_statistics(block, config.reference, frames)
            yield frame_table(channels, times, np.zeros(len(block), dtype=np.intp), stats, config)
            if args.verbose:
                for t, (ed, acf1, cdist) in zip(times.tolist(), stats.tolist()):
                    # the unscaled distance, cdist * sqrt(L); absent for a zero-energy frame
                    raw = f" raw_dist={cdist * math.sqrt(config.acf_lags):.9g}" if ed else ""
                    print(f"t={t:.6f} ed={ed:.9g} acf1={acf1:.9g} cdist={cdist:.9g}{raw}")
            frames += len(block)

    with _replace_on_success(out / "records.csv") as part:
        write_record_tables(tables(), part)
    print(f"analyzed {frames} frames ({discarded} samples discarded), "
          f"wrote {len(DETECTOR_TABLE) * frames} records")
    return 0


# --- report ------------------------------------------------------------------

def cmd_report(args) -> int:
    from .report import (aggregate_table, channel_slug, report_matrix, write_occupancy_csv,
                         write_plot_data)
    from .scan import read_record_table

    out = _out_dir(args)
    cells = aggregate_table(read_record_table(args.records), args.bins)
    by_channel: dict = {}
    for cell in cells:  # cells are sorted by channel, so each channel's cells are in order
        by_channel.setdefault(cell.channel, []).append(cell)
    names: dict = {}
    for channel in by_channel:
        first = names.setdefault(channel_slug(channel), channel)
        if first != channel:
            raise PlanError(f"plots/{channel_slug(channel)}.dat: channels {first.band!r}:"
                            f"{first.index_in_band} and {channel.band!r}:{channel.index_in_band} "
                            "would both write this file")
    write_occupancy_csv(cells, out / "occupancy.csv")

    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    for slug, channel in names.items():
        write_plot_data(report_matrix(by_channel[channel], channel), plots / f"{slug}.dat")
    print(f"wrote {len(cells)} occupancy cells and {len(by_channel)} plot files to {out}")
    return 0


# --- eval --------------------------------------------------------------------

def cmd_eval(args) -> int:
    import numpy as np

    from .detectors import BLOCK_FRAMES, DETECTOR_TABLE
    from .evaluate import operating_points, shared_trial_statistics, write_eval_csv

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
        if args.workers > 1:
            with _process_pool(args.workers) as pool:
                parts = list(pool.map(run, chunks))
        else:
            parts = [run(c) for c in chunks]
    except SampleDataError as exc:
        raise SampleDataError(f"eval: {exc}") from exc
    stats = np.concatenate(parts, axis=1)

    def ops(d, snr_db, thresholds):
        h1 = stats[1 + snrs.index(snr_db), :, d.column]
        return operating_points(d.name, snr_db, stats[0, :, d.column], h1, thresholds)

    rows = [("point", op) for d in DETECTOR_TABLE for snr_db in points
            for op in ops(d, snr_db, [d.threshold(config)])]
    rows += [("roc", op) for d in DETECTOR_TABLE if d.name in ev["roc_thresholds"]
             for op in ops(d, roc_snr_db, ev["roc_thresholds"][d.name])]
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
    common(p_ana)
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
