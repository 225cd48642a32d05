"""A deadline for code that might never return."""

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def time_limit(seconds: int):
    """Turn a block that runs past ``seconds`` into a test failure.

    The failure is pytest's own outcome, which is not an Exception: no
    ``except Exception`` or ``except OSError`` in the code under test can
    swallow it, and Hypothesis still reports the example that stalled.
    """
    def expire(*_):
        pytest.fail(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
