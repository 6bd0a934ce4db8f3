import signal

import pytest

from rareach.pcp import PcpInstance, compile_pcp, pcp_witness

from tests import corpus


#: seconds any one test may run; the slowest takes a few seconds
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``, so neither ``cli.main``'s handler nor Hypothesis catches it."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TIME_LIMIT_S``, say a search that stopped pruning."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TIME_LIMIT_S} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, saved)


@pytest.fixture(scope="session")
def mp_program():
    return corpus.mp()


@pytest.fixture(scope="session")
def pcp_inst():
    # alpha = (a, ab), beta = (aa, b); solved by 1,2 -> "aab"
    return PcpInstance((("a", "aa"), ("ab", "b")))


@pytest.fixture(scope="session")
def gadget(pcp_inst):
    return compile_pcp(pcp_inst)


@pytest.fixture(scope="session")
def witness(pcp_inst):
    return pcp_witness(pcp_inst, (1, 2))


@pytest.fixture(scope="session")
def long_witness(pcp_inst):
    # "aabaab": long enough for the stream values to repeat mod 4
    return pcp_witness(pcp_inst, (1, 2, 1, 2))


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance pass/fail lines after the test summary."""
    import sys

    module = sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
