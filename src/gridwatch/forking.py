"""Jobs at once in several processes: the rule for when forked children may
take some of them, and the helper that runs them.

Stream files (simgen), the heatmap command (cli) and the Monte Carlo chunks
(experiments) split their work this way.  A child ends with os._exit, so it
runs no exit handler and flushes no buffer that it inherited.
"""

from __future__ import annotations

import os
import pickle
import threading


def cpus() -> int:
    """CPUs this process may run on; 1 where that is unknown (every system
    that reports it can fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def may_fork() -> bool:
    """Whether a forked child may take a job: two or more CPUs, and no other
    thread, which a fork would leave behind in the child."""
    return threading.active_count() == 1 and cpus() >= 2


def _spawn(job):
    """(pid, read end of its pipe) of a forked child that pipes back job()'s
    result or exception."""
    read, write = os.pipe()
    pipe = open(read, "rb")
    with open(write, "wb") as report:
        try:
            pid = os.fork()
        except BaseException:
            pipe.close()
            raise
        if pid:
            return pid, pipe
        try:
            pipe.close()
            try:
                pickle.dump(job(), report)
            except BaseException as exc:  # raised in the parent
                pickle.dump(exc, report)
            report.flush()
        finally:
            os._exit(0)


def forked(*jobs) -> tuple:
    """The results of jobs, in job order; a failure raises the error that
    running them in order would meet first.  Where may_fork, the first job
    runs here and each other one in its own forked child, every child read
    and reaped also when the first job raises; otherwise all run here."""
    if not may_fork():
        return tuple(job() for job in jobs)
    children = []
    try:
        for job in jobs[1:]:
            children.append(_spawn(job))
        mine = jobs[0]()
    finally:
        sent = []
        for pid, pipe in children:
            with pipe:
                sent.append(pipe.read())
            os.waitpid(pid, 0)
    results = (mine, *(pickle.loads(data) if data else
                       ChildProcessError(f"process {pid} sent nothing")
                       for data, (pid, _) in zip(sent, children)))
    for result in results[1:]:
        if isinstance(result, BaseException):
            raise result
    return results
