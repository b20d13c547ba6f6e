"""The fork helper: results in job order, the lowest-indexed job's exception,
and every child read and reaped whichever job fails."""

import os

import pytest

from gridwatch.forking import forked


class JobError(Exception):
    pass


def _fail(index: int):
    def job():
        raise JobError(f"job {index} in {os.getpid()}")
    return job


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_three_jobs_return_in_order():
    results = forked(lambda: ("first", os.getpid()), lambda: ("second", os.getpid()),
                     lambda: ("third", os.getpid()))
    assert [name for name, _ in results] == ["first", "second", "third"]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert _no_child_left()


def test_lowest_indexed_child_error_wins():
    with pytest.raises(JobError, match=r"^job 1 in (\d+)$") as info:
        forked(lambda: "here", _fail(1), _fail(2))
    assert info.value.args[0] != f"job 1 in {os.getpid()}"
    assert _no_child_left()


def test_parent_error_wins_and_every_child_is_reaped():
    with pytest.raises(JobError, match=rf"^job 0 in {os.getpid()}$"):
        forked(_fail(0), _fail(1), lambda: "there")
    assert _no_child_left()


def test_child_that_sends_nothing_is_named():
    with pytest.raises(ChildProcessError, match=r"^process \d+ sent nothing$"):
        forked(lambda: "here", lambda: "there", lambda: os._exit(0))
    assert _no_child_left()
