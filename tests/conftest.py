import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from gridwatch.grid import Branch, GridTopology, load_feeder

# Property tests replay the same examples on every run, take as long as they
# need and write no example database into the checkout; each test sets its
# own max_examples budget.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
# hypothesis keeps a cache of constants under its home directory whatever
# the database setting; keep it out of the checkout.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "gridwatch-hypothesis"))


def pytest_configure(config):
    # hypothesis's pytest plugin imports libcst to suggest an @example for a
    # failing property test, and that import warns through mypy_extensions;
    # as an error it would stop the run before the falsifying example is
    # shown.  No gridwatch code uses mypy_extensions.
    config.addinivalue_line("filterwarnings",
                            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {left})")


@pytest.fixture(scope="session")
def path3():
    return load_feeder("path3")


@pytest.fixture(scope="session")
def loop8():
    return load_feeder("loop8")


@pytest.fixture(scope="session")
def loop12():
    return load_feeder("loop12")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def unit_path(n: int) -> GridTopology:
    """n-bus path with unit real admittances (handy for exact matrices)."""
    return GridTopology(n, tuple(Branch(i, i + 1, 1 + 0j) for i in range(1, n)))
