"""Two jobs at once in two processes: the rule for when a forked child may
take one of them, and the helper that runs it.

Stream files (simgen) and the heatmap command (cli) split their work this
way.  The child ends with os._exit, so it runs no exit handler and flushes
no buffer that it inherited.
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


def forked(here, there) -> tuple:
    """(here(), there()), there() run in a forked child that pipes back its
    result or exception.  The child is reaped even when here() raises, which
    wins; else there()'s exception is raised here."""
    read, write = os.pipe()
    with open(read, "rb") as pipe, open(write, "wb") as report:
        if not (pid := os.fork()):
            try:
                try:
                    pickle.dump(there(), report)
                except BaseException as exc:  # raised in the parent
                    pickle.dump(exc, report)
                report.flush()
            finally:
                os._exit(0)
        report.close()
        try:
            mine = here()
        finally:
            sent = pipe.read()
            os.waitpid(pid, 0)
    theirs = pickle.loads(sent) if sent else ChildProcessError(f"process {pid} sent nothing")
    if isinstance(theirs, BaseException):
        raise theirs
    return mine, theirs

