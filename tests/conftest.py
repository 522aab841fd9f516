"""Shared fixtures: the three schedules most tests exercise, and the check
that no child process outlives a call.

The schedules are session-scoped because building the rule-generated
schedule scans ~5e5 gain values and the others run small searches; all are
immutable.
"""

import sys
from fractions import Fraction

import pytest

from stairwalk import (
    build_paper_schedule,
    paper_profile,
    scaled_profile,
    steady_drift_schedule,
)


@pytest.fixture(scope="session")
def paper_schedule():
    """The original construction at sigma = 1/2, exact-rational profile."""
    return build_paper_schedule(Fraction(1, 2))


@pytest.fixture(scope="session")
def scaled_schedule():
    """Desk-scale rule-generated schedule: M = 146, N_1 = 771."""
    return build_paper_schedule(0.5, scaled_profile())


@pytest.fixture(scope="session")
def cond_schedule():
    """Ten-phase user-designed schedule sized for conditional-success runs."""
    return steady_drift_schedule(10, sigma=0.01)


CHILD_DEADLINE_S = 30


@pytest.fixture
def child_deadline():
    """Fail a test that runs past the deadline, ending every child process
    first, so that a child which never sees end of file, or a pool that
    deadlocks, fails the suite instead of hanging it.  `pytest.fail` is no
    `Exception`, so the CLI cannot report it as an error line."""
    import multiprocessing
    import signal

    def expire(signum, frame):
        workers = sys.modules.get("stairwalk.workers")
        if workers is not None:
            workers._workers.clear()
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        pytest.fail(f"the test ran past {CHILD_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_DEADLINE_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _stray_children() -> list:
    """Live child processes other than the kept workers."""
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return []
    workers = sys.modules.get("stairwalk.workers")
    kept = {proc for proc, _ in workers._workers} if workers else set()
    return [child for child in mp.active_children() if child not in kept]


@pytest.fixture
def no_stray_children():
    """A check that no child but a kept worker outlives a call."""
    def check():
        assert _stray_children() == []
    return check


@pytest.fixture(scope="session", autouse=True)
def workers_closed_at_session_end():
    """After the last test, closing the kept workers leaves no child."""
    yield
    workers = sys.modules.get("stairwalk.workers")
    if workers is not None:
        workers._close_workers()
    mp = sys.modules.get("multiprocessing")
    assert mp is None or mp.active_children() == []
