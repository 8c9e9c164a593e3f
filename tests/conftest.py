"""Test-session setup, read by pytest before any test module.

The numeric oracles in oracles.py take ranks of small matrices through
numpy; a BLAS that starts one thread per core for them contends with any
other busy process on the machine.  One thread each is set here, before
numpy is first imported, unless the environment already names a count.

The ``alarm`` fixture fails a test that would otherwise loop for ever.
"""

import os
import signal

import pytest

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(name, "1")

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
