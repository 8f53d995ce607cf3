"""A time limit on each phase of each test (setup, call and teardown).

A fault that makes a computation loop forever, such as an _snf whose
search never ends, would otherwise hang the whole run.  When a phase
runs over, SIGALRM raises TimeLimitExceeded in it: the test fails, the
summary names it, and the run goes on and ends nonzero.  The exception is
a BaseException, which hypothesis does not catch, so it does not replay
the example to shrink it, a replay that could hang with no alarm left.
"""

import signal

import pytest

LIMIT_S = 120       # the slowest test takes about 10 s


class TimeLimitExceeded(BaseException):
    pass


def _limited(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran over {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# each phase runs inside pytest's own call wrapper, which reports what it raises
pytest_runtest_setup = pytest.hookimpl(hookwrapper=True)(_limited)
pytest_runtest_call = pytest.hookimpl(hookwrapper=True)(_limited)
pytest_runtest_teardown = pytest.hookimpl(hookwrapper=True)(_limited)
