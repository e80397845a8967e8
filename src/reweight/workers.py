"""The worker pool behind `sweep` and `verify`: jobs run in forked workers,
one per CPU this process may run on.

A caller splits n units of work into pool_size(n) jobs and calls
in_workers, which runs the first job in this process and each other job in
a worker forked for it, and returns every job's value in order. A job's
value and exception come back pickled through a pipe, so they must pickle.
On a one-CPU host a caller makes one job, and nothing forks.
"""

from __future__ import annotations

import os
import pickle


def cpus():
    """The number of CPUs this process may run on: 1 where it cannot fork or
    the OS does not tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def pool_size(n):
    """The number of shares, one job each, to split n units of work into:
    the smaller of n and cpus(), and at least 1."""
    return max(1, min(n, cpus()))


def _fork(job):
    """Fork a worker that calls job and sends its pickled (value, None), or
    (None, the exception it raised), through a pipe. The worker leaves by
    os._exit, so no exit handler or stdio flush runs in it; it exits 0 once
    the pipe holds its result. Return its pid and the pipe's read end. If
    the fork fails, both ends of the pipe are closed and its error raised."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                result = (job(), None)
            except Exception as exc:  # the parent raises it again
                result = (None, exc)
            with open(write, "wb") as fh:
                pickle.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)  # a later worker must not hold this pipe open
    return pid, open(read, "rb")


def in_workers(jobs):
    """Call every job and return their values in order: the first job in
    this process, each other in a worker forked for it. Every worker is
    reaped before this returns or raises, also when this process's own job
    raises. A worker's exception is raised here again, and a worker that
    died raises a RuntimeError naming its exit status."""
    workers, statuses = [], []
    try:
        for job in jobs[1:]:
            workers.append(_fork(job))
        values = [job() for job in jobs[:1]]
        payloads = [fh.read() for _, fh in workers]  # read every pipe before waiting
    finally:
        # Close every read end before waiting: a worker still writing gets
        # EPIPE once neither this process nor a later worker holds its pipe.
        for _, fh in workers:
            fh.close()
        for pid, _ in workers:
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), status, payload in zip(workers, statuses, payloads):
        if status != 0:
            raise RuntimeError(f"worker {pid} died with exit status {status}")
        value, exc = pickle.loads(payload)
        if exc is not None:
            raise exc
        values.append(value)
    return values
