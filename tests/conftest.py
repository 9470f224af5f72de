"""A wall bound on every test: a test that runs past it ends the whole run.

Each test's setup, call and teardown run under one
``faulthandler.dump_traceback_later``, which prints every thread's
traceback and exits the process when the bound passes.  A hung test then
fails the run at once with tracebacks, instead of running until CI's job
limit.  The bound is about nine times the slowest phase today, the module
fixture of the criterion 5 sweep.  It exits rather than raising (as
``signal.alarm`` would), because hypothesis re-runs a failing example, and
that re-run would go on with no alarm armed.
"""

import faulthandler
import os
import sys

import pytest

# a copy of the terminal's stderr, taken before any test's output capture
# replaces fd 2, so the tracebacks reach the terminal
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(120, exit=True, file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
