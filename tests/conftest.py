"""Suite-wide settings: no bytecode cache, and one hypothesis profile.

A test run writes no ``__pycache__`` under ``src/``: a cache left there would
make a later fresh import of the package (the benchmark's ``setup_s``) read
compiled files instead of compiling the sources.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and stop at a fixed number of examples, so the suite
stays deterministic and its cost bounded.

No test may leave a child process behind, running or unreaped: the CLI forks
workers for large grids, and each must be reaped before its call returns.
"""

import os
import sys

import pytest
from hypothesis import settings

sys.dont_write_bytecode = True

settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    state = "still running" if pid == 0 else f"{pid} exited unreaped"
    pytest.fail(f"the test left a child process behind ({state})")
