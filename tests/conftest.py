"""A deadline on every test call: a test that runs past DEADLINE_S seconds
fails with the traceback of the line it was running, so a fault that loops
forever fails its test instead of stalling the suite.  Stdlib only: a real-
time interval timer whose SIGALRM handler fails the test, armed in the main
thread where the platform has one (nowhere else can a signal handler run)."""

import signal
import threading

import pytest

DEADLINE_S = 120  # the slowest Tier-1 test takes a few seconds


def _expire(signum, frame):
    pytest.fail(f"test ran past its {DEADLINE_S} s deadline")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer") or (
            threading.current_thread() is not threading.main_thread()):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
