"""Test-session setup, read by pytest before any test module.

The ``alarm`` fixture fails a test that would otherwise loop for ever.
"""

import signal

import pytest

ALARM_S = 5


@pytest.fixture
def alarm():
    """Raise TimeoutError in the test if it runs past ALARM_S seconds.

    For tests of a guard whose loss would loop: SIGALRM (POSIX) starts no
    thread or process, and Python runs the handler between bytecodes, so
    a pure-Python loop is interrupted.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {ALARM_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
