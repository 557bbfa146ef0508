"""Shared fixtures for the lvmut tests."""
import signal

import pytest

from lvmut import linalg

# Each test's wall-time limit. The slowest test takes about 3 s, so only a
# hang reaches it: an integrator that never ends fails its test instead of
# stalling the suite.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _empty_eigh_memo():
    """Start every test with an empty eigh memo, so a spy on np.linalg or a
    patched kernel sees the same calls whatever ran before."""
    linalg._EIGH_MEMO.clear()


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT_S, by SIGALRM; the
    fixture's value is the limit.

    The handler raises pytest's failure, which no `except Exception` in the
    library can swallow. A long numpy call delays it until the call returns.
    """
    def expire(signum, frame):
        pytest.fail(f"test ran longer than its limit of {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield TEST_TIME_LIMIT_S
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
