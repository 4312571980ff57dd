"""Span tracer for the occuscan CLI, applied from outside the program.

``python3 bench/tracer.py OUT.npz RUN_ID -- <occuscan arguments>`` wraps the
public functions and public methods of every layer module, plus the
constructors named in CONSTRUCTORS, so that each call records a span (name,
start, end, parent). It then runs ``occuscan.cli.main`` and, when the command
ends, writes the spans it kept in memory to OUT.npz, tagged with RUN_ID.
The CLI's process pool is replaced by one whose tasks trace themselves in the
worker and hand their spans back with the task's result.

``layer_metrics`` turns the span files of one workload iteration into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler

import numpy as np

LAYERS = ("synth", "iq", "detectors", "scan", "report", "evaluate", "scenario", "cli")
# Constructors traced as spans of their own: frame construction is per-frame
# work, and the first and last truth record bracket the record sort in
# `simulate`.
CONSTRUCTORS = {"iq": ("ComplexFrame",), "scan": ("TruthRecord",)}
# Spans noted with the identity of the frame they generate: (spec seed, index).
FRAME_SPANS = ("synth.gen_noise_frame", "synth.gen_signal_frame")
# Spans noted with the growth of the process's peak RSS during the call, in MB.
RSS_SPANS = ("iq.read_recording",)

# The tracer of this process. The wrappers are installed process-wide, and
# pool workers reach the tracer through it because the program, not the
# benchmark, constructs the pool.
_PROCESS_TRACER: "Tracer | None" = None


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _frame_identity(args):
    try:
        return [getattr(args[1], "seed", None), int(args[2])]
    except (IndexError, TypeError, ValueError):
        return None


class Tracer:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self.stack: list[int] = []
        self.notes: dict[int, object] = {}
        self.chunks: list = []  # pool tasks' spans: (pid, pool span, spans array, notes)
        self.pickle_bytes = 0

    def reset(self) -> None:
        """Forget the spans a forked worker inherited from its parent."""
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()
        self.notes.clear()
        self.chunks.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self.name_id(name), time.perf_counter_ns(), None,
                           self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.remove(idx)
        nid, t0, _, parent = self.spans[idx]
        self.spans[idx] = (nid, t0, time.perf_counter_ns(), parent)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        spans, stack, notes, clock = self.spans, self.stack, self.notes, time.perf_counter_ns
        frame = name in FRAME_SPANS
        rss = name in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rss0 = _maxrss_mb() if rss else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
                if frame:
                    notes[idx] = _frame_identity(args)
                elif rss:
                    notes[idx] = _maxrss_mb() - rss0

        return traced

    def install(self) -> None:
        """Wrap each layer's public callables, and every occuscan module's reference to them."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"occuscan.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # `from .x import f` copies f into other modules, so rebind every copy
        for modname, mod in list(sys.modules.items()):
            if modname == "occuscan" or modname.startswith("occuscan."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        cli = sys.modules["occuscan.cli"]
        if getattr(cli, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            cli.ProcessPoolExecutor = TracedPool

    def _wrap_class(self, layer: str, cls) -> None:
        if cls.__name__ in CONSTRUCTORS.get(layer, ()):
            cls.__init__ = self.wrap(f"{layer}.{cls.__name__}", cls.__init__)
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def take(self):
        """Hand over this process's closed spans (names, spans array, notes) and forget them."""
        out = (list(self.names), np.array(self.spans, dtype=np.int64).reshape(-1, 4),
               list(self.notes.items()))
        self.spans.clear()
        self.notes.clear()
        return out

    def absorb(self, returned, pool_span: int):
        """Keep a pool task's spans, rooted at the pool span; returns the task's result."""
        result, names, spans, notes, pickle_bytes, pid = returned
        ids = np.array([self.name_id(n) for n in names] + [0], dtype=np.int64)
        spans[:, 0] = ids[spans[:, 0]]
        self.chunks.append((pid, pool_span, spans, notes))
        self.pickle_bytes += pickle_bytes
        return result

    def dump(self, path, run_id: str, exit_code: int) -> None:
        """Write all spans as one array of (name id, start ns, end ns, parent) rows."""
        now = time.perf_counter_ns()
        own = np.array([s if s[2] is not None else (s[0], s[1], now, s[3]) for s in self.spans],
                       dtype=np.int64).reshape(-1, 4)
        parts, pids, notes = [own], [np.full(len(own), self.pid)], dict(self.notes)
        base = len(own)
        for pid, pool_span, spans, chunk_notes in self.chunks:
            spans[:, 3] = np.where(spans[:, 3] >= 0, spans[:, 3] + base, pool_span)
            parts.append(spans)
            pids.append(np.full(len(spans), pid))
            notes.update((i + base, n) for i, n in chunk_notes)
            base += len(spans)
        meta = {"run": run_id, "exit_code": exit_code, "pid": self.pid,
                "pickle_bytes": self.pickle_bytes, "names": self.names,
                "notes": list(notes.items())}
        np.savez(path, spans=np.concatenate(parts), pid=np.concatenate(pids),
                 meta=np.array(json.dumps(meta)))


def worker_tracer() -> Tracer:
    global _PROCESS_TRACER
    if _PROCESS_TRACER is None:  # spawned worker: a fresh interpreter, nothing wrapped yet
        _PROCESS_TRACER = Tracer()
        _PROCESS_TRACER.install()
    elif _PROCESS_TRACER.pid != os.getpid():  # forked worker
        _PROCESS_TRACER.reset()
    return _PROCESS_TRACER


class PoolTask:
    """Picklable task wrapper: runs fn under a span in the worker, returns its spans."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = worker_tracer()
        idx = tracer.begin("cli.pool_task")
        try:
            result = self.fn(*args)
        finally:
            tracer.end(idx)
        # the bytes this result costs to send back through the pool
        nbytes = len(ForkingPickler.dumps(result))
        return (result,) + tracer.take() + (nbytes, os.getpid())


class TracedPool(ProcessPoolExecutor):
    """The CLI's process pool, traced as one span from creation to shutdown."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._span = _PROCESS_TRACER.begin("cli.pool")
        _PROCESS_TRACER.notes[self._span] = self._max_workers

    def map(self, fn, *iterables, **kwargs):
        results = super().map(PoolTask(fn), *iterables, **kwargs)
        return (_PROCESS_TRACER.absorb(r, self._span) for r in results)

    def shutdown(self, wait=True, **kwargs):
        super().shutdown(wait=wait, **kwargs)
        if self._span is not None:
            _PROCESS_TRACER.end(self._span)
            self._span = None


# --- analysis ----------------------------------------------------------------

class Spans:
    """The spans of several traced commands, as arrays."""

    def __init__(self, paths):
        name, spans, pid, run = [], [], [], []
        self.notes: dict[int, object] = {}
        self.main_pid: dict[str, int] = {}
        self.pickle_bytes = 0
        off = 0
        for path in paths:
            with np.load(path) as d:
                meta = json.loads(str(d["meta"]))
                rows, pids = d["spans"].copy(), d["pid"]
            rows[:, 3] = np.where(rows[:, 3] >= 0, rows[:, 3] + off, -1)
            name.append(np.array(meta["names"] + [""], dtype=object)[rows[:, 0]])
            spans.append(rows)
            pid.append(pids)
            run.append(np.full(len(rows), meta["run"], dtype=object))
            self.notes.update((i + off, n) for i, n in meta["notes"])
            self.main_pid[meta["run"]] = meta["pid"]
            self.pickle_bytes += meta["pickle_bytes"]
            off += len(rows)
        rows = np.concatenate(spans)
        self.name = np.concatenate(name)
        self.start, self.end, self.parent = rows[:, 1], rows[:, 2], rows[:, 3]
        self.pid = np.concatenate(pid)
        self.run = np.concatenate(run)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.zeros(len(rows), dtype=np.int64)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - child

    def where(self, name: str, run: str | None = None, main_only: bool = False) -> np.ndarray:
        mask = self.name == name
        if run is not None:
            mask &= self.run == run
            if main_only:
                mask &= self.pid == self.main_pid.get(run, -1)
        return np.flatnonzero(mask)


def _pct(values_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(values_ns, q)) / 1e3 if values_ns.size else 0.0


def _sort_and_merge_s(s: Spans, run: str) -> tuple[float, float]:
    """(record and truth sort time, whole merge time) of `simulate`, in seconds.

    The merge runs in the main process from the end of the scan work (the
    pool, or the last in-process scan) to the first CSV write. Inside it the
    record sort runs from the end of record_sort_key to the first truth
    record, and the truth sort from the last truth record to that write.
    """
    work = np.concatenate([s.where(n, run, main_only=True) for n in
                           ("cli.pool", "synth.gen_channel_timeline", "scan.scan_channel")])
    writes = np.concatenate([s.where(n, run, main_only=True) for n in
                             ("scan.write_plan_csv", "scan.write_records_csv",
                              "scan.write_truth_csv")])
    if not work.size or not writes.size:
        return 0.0, 0.0
    t_work = s.end[work].max()
    later = s.start[writes][s.start[writes] >= t_work]
    if not later.size:
        return 0.0, 0.0
    t_write = later.min()
    keys = s.where("scan.record_sort_key", run, main_only=True)
    keys = keys[(s.start[keys] >= t_work) & (s.end[keys] <= t_write)]
    truths = s.where("scan.TruthRecord", run, main_only=True)
    truths = truths[(s.start[truths] >= t_work) & (s.end[truths] <= t_write)]
    sort_ns = 0
    if keys.size and truths.size:
        sort_ns = (s.start[truths].min() - s.end[keys].max()) + (t_write - s.end[truths].max())
    elif keys.size:
        sort_ns = t_write - s.end[keys].max()
    return sort_ns / 1e9, (t_write - t_work) / 1e9


def layer_metrics(paths, main_run: str, scored_frames: int):
    """Per-layer metrics of one iteration's span files, with their sample counts.

    ``main_run`` names the command whose frames ``scored_frames`` counts: the
    detectors' per-frame ratios and the eval frame counts come from it.
    """
    s = Spans(paths)
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def put(metric, value, n):
        values[metric] = float(value)
        samples[metric] = int(n)

    def per_call(metric, name, q):
        idx = s.where(name)
        put(metric, _pct(s.dur[idx], q), idx.size)

    def total(metric, name, self_time=False):
        idx = s.where(name)
        put(metric, (s.self_dur if self_time else s.dur)[idx].sum() / 1e9, idx.size)

    def calls(metric, name):
        idx = s.where(name)
        put(metric, idx.size, idx.size)

    calls("synth.gen_noise_frame.calls", "synth.gen_noise_frame")
    per_call("synth.gen_noise_frame.us_p50", "synth.gen_noise_frame", 50)
    per_call("synth.gen_noise_frame.us_p99", "synth.gen_noise_frame", 99)
    calls("synth.gen_signal_frame.calls", "synth.gen_signal_frame")
    per_call("synth.gen_signal_frame.us_p50", "synth.gen_signal_frame", 50)
    total("synth.gen_channel_timeline.self_s", "synth.gen_channel_timeline", self_time=True)

    total("iq.read_recording.s", "iq.read_recording")
    reads = s.where("iq.read_recording")
    put("iq.read_recording.rss_delta_mb",
        max((s.notes.get(int(i)) or 0.0 for i in reads), default=0.0), reads.size)
    per_call("iq.ComplexFrame.us_p50", "iq.ComplexFrame", 50)

    for fn in ("energy_statistic", "acf1_statistic", "acf_vector", "correlation_distance"):
        per_call(f"detectors.{fn}.us_p50", f"detectors.{fn}", 50)
    # acf calls per frame the detectors score, a count fixed by the input
    acf = s.where("detectors.acf", main_run)
    put("detectors.acf.calls_per_frame", acf.size / scored_frames if scored_frames else 0.0,
        scored_frames)
    total("detectors.calibrate_ed_threshold.s", "detectors.calibrate_ed_threshold")

    calls("scan.scan_channel.calls", "scan.scan_channel")
    per_call("scan.scan_channel.us_p50", "scan.scan_channel", 50)
    per_call("scan.scan_channel.us_p99", "scan.scan_channel", 99)
    scans = s.where("scan.scan_channel")
    put("scan.scan_channel.self_us_p50", _pct(s.self_dur[scans], 50), scans.size)
    total("scan.write_records_csv.s", "scan.write_records_csv")
    total("scan.read_records_csv.s", "scan.read_records_csv")
    sort_s, merge_s = _sort_and_merge_s(s, "simulate")
    put("scan.sort.s", sort_s, 1 if sort_s else 0)

    total("report.aggregate.s", "report.aggregate")
    total("report.write_occupancy_csv.s", "report.write_occupancy_csv")
    total("report.write_plot_data.s", "report.write_plot_data")

    calls("evaluate.trial_statistics.calls", "evaluate.trial_statistics")
    total("evaluate.trial_statistics.s", "evaluate.trial_statistics")
    # frames `eval` generates, and the share of them that are distinct (spec seed, index)
    made = np.concatenate([s.where(n, "eval") for n in FRAME_SPANS])
    distinct = {(s.name[i], *s.notes[int(i)]) if s.notes.get(int(i)) else ("?", int(i))
                for i in made}
    put("evaluate.frames_generated", made.size, made.size)
    put("evaluate.useful_frame_ratio", len(distinct) / made.size if made.size else 0.0, made.size)

    total("scenario.load.s", "scenario.Scenario.load")
    total("scenario.detector_config.s", "scenario.Scenario.detector_config")

    # pool tasks' time over the pool's lifetime times its worker count
    pools = s.where("cli.pool")
    tasks = s.where("cli.pool_task")
    capacity = sum(s.dur[i] * (s.notes.get(int(i)) or 1) for i in pools)
    put("cli.simulate.result_pickle_bytes", s.pickle_bytes, tasks.size)
    put("cli.simulate.merge_s", merge_s, 1 if merge_s else 0)
    put("cli.pool.busy_frac", s.dur[tasks].sum() / capacity if capacity else 0.0, tasks.size)
    return values, samples


def main(argv) -> int:
    global _PROCESS_TRACER
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.npz RUN_ID -- <occuscan arguments>", file=sys.stderr)
        return 2
    out, run_id, cli_args = argv[0], argv[1], argv[3:]
    _PROCESS_TRACER = Tracer()
    _PROCESS_TRACER.install()
    from occuscan import cli

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        _PROCESS_TRACER.dump(out, run_id, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
