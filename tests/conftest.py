"""A time limit on every test, so that a hang fails the test that hangs.

The slowest test takes a few seconds; a test still running after
TIME_LIMIT_S is failed by name.  The limit uses SIGALRM and is skipped on
platforms without it.
"""

import signal

import pytest

TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
