"""Forked workers for --workers > 1: worker k of n runs tasks k, k + n, ... of its own copy
of the task iterator, inherited at the fork, so no task is pickled, and writes each
(ok, result or exception) down its own pipe. The main process reads the pipes round-robin in
task order: a result waits in its pipe, and a full pipe holds its worker back. It starts
no thread: a fork is safe only in a process without one.
"""

import os
import pickle
import signal
from itertools import islice

from .errors import OccuscanError


def fork_map(fn, tasks, n_tasks: int, workers: int):
    """fn(t) for each of the n_tasks tasks, in order and lazily, in min(workers, n_tasks)
    workers. A worker's exception is raised as it is. Every worker is killed and reaped
    before this returns or raises: by then its results are read or no longer wanted."""
    workers = min(workers, n_tasks)
    pids, pipes = [], []
    try:
        for k in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:  # closed here after the fork: a worker's exit is EOF
                if (pid := os.fork()) == 0:
                    _work(fn, islice(tasks, k, None, workers), out, pipes)
            pids.append(pid)
        for i in range(n_tasks):
            try:
                ok, value = pickle.load(pipes[i % workers])
            except (EOFError, pickle.UnpicklingError):  # the worker ended without this result
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(i % workers), 0)[1])
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise OccuscanError(f"--workers: a worker process {how} before its result "
                                    f"for task {i}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(fn, tasks, out, pipes):
    """A worker: each task's (ok, result or exception) down its pipe, up to the first
    exception. It leaves only by os._exit, so none of the main process's cleanup runs."""
    try:
        for pipe in pipes:  # every read end, so a worker whose main process dies gets EPIPE
            pipe.close()
        for task in tasks:
            try:
                reply = True, fn(task)
            except BaseException as exc:  # the main process raises it
                reply = False, exc
            pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
            out.flush()
            if not reply[0]:
                break
        os._exit(0)
    finally:
        os._exit(1)
