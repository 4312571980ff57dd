"""occuscan benchmark: the CLI run as a closed-loop batch job, every output checked.

    python3 bench/run.py --workload {sweep,eval,analyze} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src`` directory. Set-up makes every input from ``--seed``: a copy
of docs/example-scenario.yaml with ``master_seed`` set and the workload's
sizes, the ``reference.txt`` written by ``occuscan calibrate``, and (for
``analyze``) an .iq recording. Then one iteration of the workload's commands
runs at a time, each command starting after the previous one exits, until
``--seconds`` have passed. Every iteration's outputs are checked against the
frozen model in model.py.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
the median over the timed iterations; ``setup_s`` is the wall time of a fresh
process that imports occuscan.cli and loads the scenario and reference, run
once after each iteration. ``attempted`` counts set-up's ``calibrate`` and
every iteration, ``failed`` those whose outputs fail a check. With
``--trace 1`` the iterations alternate between plain and traced runs
(tracer.py) and the line carries the per-layer metrics, each the median over
the traced iterations. A result file with the seed, the environment, every
iteration and the sample counts goes to .bench_work/results/ in the checkout.

Workloads, and why each is here:

* ``sweep``: ``simulate --workers 2`` then ``report --bins 60`` on the example
  plan (123 channels, 1024-sample frames). The only workload that sends heavy
  results through the process pool, writes and re-reads records.csv and runs
  ``report``: it shows gains in synthesis, record building, CSV I/O,
  aggregation and the pool merge.
* ``eval``: ``calibrate`` then ``eval --workers 1``. Bound by synthesis and
  statistics, barely touching scan, report or iq; its 15 tasks regenerate the
  same trial frames, so shared-trial work shows here only. The single-process
  baseline.
* ``analyze``: ``analyze`` of a seeded .iq recording of tone frames at a known
  duty cycle. Scans data that is read, not generated, so the detector kernel
  is the largest share; the only workload through ``iq.read_recording``, so
  streaming I/O and its peak RSS show here only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import model
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SWEEP_TOTAL_S = 60.0  # 60 frames per channel: 7,380 frames and 22,140 records
SWEEP_BINS_S = 60.0
SWEEP_WORKERS = min(2, os.cpu_count() or 1)
EVAL_TRIALS = 400  # x 15 tasks = 6,000 paired trials
CAL_THRESHOLD_FRAMES = 2000
ANALYZE_FRAMES = 6000  # 6.1 M samples, a 49 MB payload
ANALYZE_CENTER_MHZ = 915.0
ANALYZE_SNR_DB = 10.0
ANALYZE_DUTY = (12, 40)  # the tone is on in the first 12 of every 40 frames
ANALYZE_START_UNIX = 1767225600.0
ORACLE_Z = 5.0  # the oracle runs on every seed, so it may fail by chance ~1e-6 per check
COMMAND_TIMEOUT_S = 60.0  # a command takes a few seconds; a hung one must not outlast the run

SETUP_PROBE = ("import sys, occuscan.cli\n"
               "from occuscan.scenario import Scenario\n"
               "Scenario.load(sys.argv[1]).detector_config()\n")

END_TO_END_UNITS = {"frames_per_s": "1/s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
LAYER_UNITS = {
    "synth.gen_noise_frame.calls": "count", "synth.gen_noise_frame.us_p50": "us",
    "synth.gen_noise_frame.us_p99": "us", "synth.gen_signal_frame.calls": "count",
    "synth.gen_signal_frame.us_p50": "us", "synth.gen_channel_timeline.self_s": "s",
    "iq.read_recording.s": "s", "iq.read_recording.rss_delta_mb": "MB",
    "iq.ComplexFrame.us_p50": "us",
    "detectors.energy_statistic.us_p50": "us", "detectors.acf1_statistic.us_p50": "us",
    "detectors.acf_vector.us_p50": "us", "detectors.correlation_distance.us_p50": "us",
    "detectors.acf.calls_per_frame": "count", "detectors.calibrate_ed_threshold.s": "s",
    "scan.scan_channel.calls": "count", "scan.scan_channel.us_p50": "us",
    "scan.scan_channel.us_p99": "us", "scan.scan_channel.self_us_p50": "us",
    "scan.write_records_csv.s": "s", "scan.write_records_csv.rows": "count",
    "scan.write_records_csv.bytes": "bytes", "scan.read_records_csv.s": "s", "scan.sort.s": "s",
    "report.aggregate.s": "s", "report.aggregate.cells": "count",
    "report.write_occupancy_csv.s": "s", "report.write_plot_data.s": "s",
    "evaluate.trial_statistics.calls": "count", "evaluate.trial_statistics.s": "s",
    "evaluate.frames_generated": "count", "evaluate.useful_frame_ratio": "ratio",
    "scenario.load.s": "s", "scenario.detector_config.s": "s",
    "cli.simulate.result_pickle_bytes": "bytes", "cli.simulate.merge_s": "s",
    "cli.pool.busy_frac": "ratio",
    "outputs.csv_bytes": "bytes", "outputs.csv_files": "count", "outputs.sha_match": "count",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    pass


# Runs in a small process of its own. Linux carries a parent's peak RSS into
# its child's ru_maxrss across fork and exec, so commands started from the
# benchmark process, which holds the model's outputs, would report its peak
# as theirs.
LAUNCHER = r"""
import json, os, signal, subprocess, sys, threading, time

def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, start_new_session=True)
        # a hung command is killed with its whole process group
        timer = threading.Timer(req["timeout"], kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 counts the child and every descendant it waited for: the pool workers
    print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0]), flush=True)
"""


@dataclass
class Command:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


class Launcher:
    """The process that starts every timed command, one at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv, stdout: Path) -> Command:
        stdout.parent.mkdir(parents=True, exist_ok=True)
        request = {"argv": [str(a) for a in argv], "stdout": str(stdout),
                   "stderr": str(stdout.with_suffix(".stderr")), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("the command launcher exited")
        return Command(*json.loads(reply), stdout.read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()


class Workload:
    """Inputs, commands, expected outputs and checks of one workload."""

    name = ""
    main_run = ""  # the command whose frames `scored_frames` counts

    def __init__(self, work: Path, seed: int, launcher: Launcher):
        self.work = work
        self.seed = seed
        self.launcher = launcher
        self.inputs = work / "inputs"
        self.scenario_path = self.inputs / "scenario.yaml"
        self.verified: dict[str, dict] = {}  # output digest -> sha matches of a checked set

    # --- set-up -----------------------------------------------------------
    def make_scenario(self) -> dict:
        with open(ROOT / "docs" / "example-scenario.yaml") as fh:
            scn = yaml.safe_load(fh)
        scn["master_seed"] = self.seed
        scn["total_s"] = SWEEP_TOTAL_S
        scn["detector"]["reference"] = "reference.txt"
        scn["calibration"]["threshold_frames"] = CAL_THRESHOLD_FRAMES
        scn["eval"]["trials"] = EVAL_TRIALS
        return scn

    def setup(self) -> Command:
        """Write the inputs, run `calibrate` once and compute the expected outputs."""
        self.inputs.mkdir(parents=True)
        self.scenario = self.make_scenario()
        with open(self.scenario_path, "w") as fh:
            yaml.safe_dump(self.scenario, fh, sort_keys=False)
        self.reference, self.lambda_ed = model.calibrate(self.scenario)
        cal = self.cli(["calibrate", "--scenario", str(self.scenario_path),
                        "--out", str(self.inputs)], self.work / "setup" / "calibrate.out")
        if cal.code != 0:
            stderr = (self.work / "setup" / "calibrate.stderr").read_text()
            raise SetupError(f"calibrate exited {cal.code}: {cal.stdout}{stderr}")
        return cal

    def check_calibration(self, stdout: str) -> model.Check:
        check = model.Check()
        check.calibration(self.inputs / "reference.txt", stdout, self.reference, self.lambda_ed)
        return check

    def cli(self, argv, stdout: Path) -> Command:
        return self.launcher.run([sys.executable, "-m", "occuscan.cli", *argv], stdout)

    def setup_seconds(self) -> float:
        """Wall time of a fresh process that imports occuscan.cli and loads the inputs."""
        probe = self.launcher.run([sys.executable, "-c", SETUP_PROBE, self.scenario_path],
                                  self.work / "setup" / "probe.out")
        if probe.code != 0:
            raise SetupError(f"set-up probe exited {probe.code}")
        return probe.wall_s

    # --- iterations -------------------------------------------------------
    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def output_files(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def check(self, out: Path, stdout: dict) -> model.Check:
        raise NotImplementedError

    def run(self, out: Path, traced: bool) -> dict:
        """One checked iteration; returns its timings, counters and verdict."""
        cmds, spans = [], []
        for run_id, argv in self.commands(out):
            log = out / f"{run_id}.out"
            if traced:
                spans.append(out / f"{run_id}.spans.npz")
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans[-1]), run_id, "--",
                        *argv]
                cmds.append((run_id, self.launcher.run(argv, log)))
            else:
                cmds.append((run_id, self.cli(argv, log)))
            if cmds[-1][1].code != 0:
                break
        problems = [f"{r} exited {c.code}" for r, c in cmds if c.code != 0]
        sha = {}
        if not problems:
            files = self.output_files(out)
            digest = hashlib.sha256()
            for path in files:
                digest.update(path.name.encode() + b"\0" +
                              (path.read_bytes() if path.is_file() else b"(missing)"))
            for r, c in cmds:
                digest.update(c.stdout.encode() if r == "calibrate" else b"")
            key = digest.hexdigest()
            if key not in self.verified:
                check = self.check(out, {r: c.stdout for r, c in cmds})
                problems = check.problems
                if check.ok:
                    self.verified[key] = check.sha_match
            sha = self.verified.get(key, {})
        result = {
            "traced": traced, "ok": not problems, "problems": problems[:5],
            "wall_s": sum(c.wall_s for _, c in cmds), "cpu_s": sum(c.cpu_s for _, c in cmds),
            "peak_rss_mb": max(c.rss_mb for _, c in cmds),
            "command_wall_s": {r: c.wall_s for r, c in cmds},
            "counters": self.counters(out) if not problems else {},
            "sha_match": sha,
        }
        if traced and not problems:
            values, samples = tracer.layer_metrics(spans, self.main_run, self.scored_frames)
            result["layers"], result["samples"] = values, samples
        return result

    def counters(self, out: Path) -> dict:
        """Exact per-iteration counts read from the outputs."""
        csvs = [p for p in self.output_files(out) if p.suffix == ".csv"]
        counts = {"outputs.csv_bytes": sum(p.stat().st_size for p in csvs),
                  "outputs.csv_files": len(csvs)}
        records = out / "records.csv"
        if records.exists():
            counts["scan.write_records_csv.rows"] = _data_rows(records)
            counts["scan.write_records_csv.bytes"] = records.stat().st_size
        occupancy = out / "occupancy.csv"
        if occupancy.exists():
            counts["report.aggregate.cells"] = _data_rows(occupancy)
        return counts


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


class Sweep(Workload):
    name = "sweep"
    main_run = "simulate"

    def setup(self) -> Command:
        cal = super().setup()
        self.records, self.truths = model.sweep(self.scenario, self.reference)
        n_frames = int(math.floor(SWEEP_TOTAL_S / float(self.scenario["frame_interval_s"]) + 1e-9))
        self.frames = self.scored_frames = len(model.plan()) * n_frames
        return cal

    def commands(self, out):
        return [("simulate", ["simulate", "--scenario", str(self.scenario_path), "--out", str(out),
                              "--workers", str(SWEEP_WORKERS)]),
                ("report", ["report", "--records", str(out / "records.csv"), "--out", str(out),
                            "--bins", repr(SWEEP_BINS_S)])]

    def output_files(self, out):
        return [out / n for n in ("plan.csv", "records.csv", "truth.csv", "occupancy.csv")] + \
            sorted((out / "plots").glob("*.dat"))

    def check(self, out, stdout):
        check = model.Check()
        check.plan(out / "plan.csv")
        records = check.records(out / "records.csv", self.records)
        check.truth(out / "truth.csv", self.truths)
        if records is not None:
            check.report(out, records, SWEEP_BINS_S)
        return check


class Eval(Workload):
    name = main_run = "eval"

    def setup(self) -> Command:
        cal = super().setup()
        self.points = model.eval_points(self.scenario, self.reference)
        tasks = len({(d, label, snr) for d, label, snr, *_ in self.points})
        self.frames = EVAL_TRIALS * tasks  # one paired trial of one task
        self.scored_frames = 2 * self.frames  # its signal-absent and signal-present frames
        return cal

    def commands(self, out):
        return [("calibrate", ["calibrate", "--scenario", str(self.scenario_path),
                               "--out", str(self.inputs)]),
                ("eval", ["eval", "--scenario", str(self.scenario_path), "--out", str(out),
                          "--workers", "1"])]

    def output_files(self, out):
        return [self.inputs / "reference.txt", out / "eval.csv"]

    def check(self, out, stdout):
        check = self.check_calibration(stdout["calibrate"])
        noise = self.scenario["eval"].get("noise", self.scenario["defaults"]["noise"])
        check.eval(out / "eval.csv", self.points, float(noise.get("total_power", 1.0)),
                   int(self.scenario["frame_len"]), ORACLE_Z)
        return check


class Analyze(Workload):
    name = main_run = "analyze"

    def setup(self) -> Command:
        cal = super().setup()
        self.payload = self.inputs / "capture.iq"
        self.meta_path = self.inputs / "capture.iq.meta"
        self.meta = write_recording(self.payload, self.meta_path, self.seed,
                                    int(self.scenario["frame_len"]))
        self.records = model.analyze(self.scenario, self.reference, self.payload, self.meta,
                                     ANALYZE_CENTER_MHZ)
        self.frames = self.scored_frames = ANALYZE_FRAMES
        return cal

    def commands(self, out):
        return [("analyze", ["analyze", "--scenario", str(self.scenario_path), "--out", str(out),
                             "--iq", str(self.payload), "--meta", str(self.meta_path),
                             "--center-mhz", repr(ANALYZE_CENTER_MHZ)])]

    def output_files(self, out):
        return [out / "records.csv"]

    def check(self, out, stdout):
        check = model.Check()
        check.records(out / "records.csv", self.records)
        return check


WORKLOADS = {w.name: w for w in (Sweep, Eval, Analyze)}


def write_recording(payload: Path, meta_path: Path, seed: int, frame_len: int) -> dict:
    """Write ANALYZE_FRAMES frames of unit-power noise plus a duty-cycled tone as .iq + sidecar.

    The format is occuscan's documented one: interleaved little-endian float32
    I/Q pairs, and a key=value sidecar.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 40)))
    tone = math.sqrt(10 ** (ANALYZE_SNR_DB / 10)) * np.exp(2j * np.pi * 0.13 * np.arange(frame_len))
    on, period = ANALYZE_DUTY
    with open(payload, "wb") as fh:
        for first in range(0, ANALYZE_FRAMES, 500):
            k = np.arange(first, min(first + 500, ANALYZE_FRAMES))
            iq = rng.standard_normal((k.size, frame_len, 2)) * math.sqrt(0.5)
            iq[k % period < on] += np.stack([tone.real, tone.imag], axis=-1)
            iq.astype("<f4").tofile(fh)
    meta = {"sample_rate_hz": 1.0e6, "center_freq_hz": ANALYZE_CENTER_MHZ * 1e6,
            "start_time_unix": ANALYZE_START_UNIX, "num_samples": ANALYZE_FRAMES * frame_len}
    meta_path.write_text("".join(f"{k}={v!r}\n" for k, v in meta.items()))
    return meta


# --- environment --------------------------------------------------------------

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "occuscan").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
        "note": "timed with perf_counter and wait4 rusage of the benchmark's own child "
                "processes; no system-wide tracing was used and no machine setting was changed",
    }


# --- main ---------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seconds: float, traced: bool) -> tuple[list, list]:
    """Closed loop of iterations until `seconds` have passed; returns them and the set-up times.

    Set-up's `calibrate` has already imported and byte-compiled the program,
    so no iteration is cold. Untraced runs time one set-up probe after each
    iteration, so that set-up time samples the whole run as the iterations do.
    """
    iters, setup_times = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(iters) < (2 if traced else 1):
        out = workload.work / f"iter-{len(iters)}"
        iters.append(workload.run(out, traced=traced and len(iters) % 2 == 0))
        shutil.rmtree(out)
        if not traced:
            setup_times.append(workload.setup_seconds())
    return iters, setup_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "occuscan" / "cli.py", ROOT / "docs" / "example-scenario.yaml"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an occuscan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    seed = args.seed % 2**64
    work = ROOT / ".bench_work" / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                                              if env.get("PYTHONPATH") else []))
    launcher = Launcher(env)
    try:
        workload = WORKLOADS[args.workload](work, seed, launcher)
        t0 = time.perf_counter()
        cal = workload.setup()
        setup_check = workload.check_calibration(cal.stdout)
        input_s = time.perf_counter() - t0
        iters, setup_times = measure(workload, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()

    failures = setup_check.problems + [p for i in iters for p in i["problems"]]
    failed = (not setup_check.ok) + sum(not i["ok"] for i in iters)
    attempted = 1 + len(iters)  # set-up's calibrate and every iteration
    plain = [i for i in iters if not i["traced"]]
    traced = [i for i in iters if i["traced"]]
    counters = next((i["counters"] for i in iters if i["ok"]), {})
    sha = next((i["sha_match"] for i in iters if i["ok"]), {})

    if args.trace:
        traced = [i for i in traced if "layers" in i]
        layers = {name: _median([i["layers"][name] for i in traced])
                  for name in (traced[0]["layers"] if traced else ())}
        layers.update({k: float(v) for k, v in counters.items()})
        layers["outputs.sha_match"] = float(sum(sha.values()))
        if traced and plain:
            layers["trace.overhead_frac"] = (_median([i["wall_s"] for i in traced])
                                             / _median([i["wall_s"] for i in plain]) - 1.0)
        # a layer that does no work in this workload reads 0
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in LAYER_UNITS.items()}
        samples = traced[0].get("samples", {}) if traced else {}
    else:
        walls = [i["wall_s"] for i in plain]
        values = {
            "frames_per_s": _median([workload.frames / w for w in walls]),
            "wall_s": _median(walls),
            "cpu_s": _median([i["cpu_s"] for i in plain]),
            "peak_rss_mb": _median([i["peak_rss_mb"] for i in plain]),
            "setup_s": _median(setup_times),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        samples = {k: len(plain) for k in values} | {"setup_s": len(setup_times)}

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(), "input_setup_s": input_s, "setup_probe_s": setup_times,
        "frames_per_iteration": workload.frames, "sizes": {
            "sweep_total_s": SWEEP_TOTAL_S, "sweep_workers": SWEEP_WORKERS,
            "eval_trials": EVAL_TRIALS, "calibration_threshold_frames": CAL_THRESHOLD_FRAMES,
            "analyze_frames": ANALYZE_FRAMES},
        "error_rate": failed / attempted, "failures": failures[:20], "counters": counters,
        "sha_match": sha, "samples": samples, "iterations": iters, **result,
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
