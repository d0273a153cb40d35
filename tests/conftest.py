import signal

import pytest


def pytest_collection_modifyitems(items):
    """Everything not explicitly marked ``slow`` is the fast tier.

    CI runs ``-m "not slow"`` on every push and the full suite on main;
    ``-m fast`` selects the same quick tier explicitly.
    """
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.fast)


def _call_with_alarm(call, *args, seconds=3):
    """``call(*args)`` under a SIGALRM: a call that never returns fails.

    The failure is raised outside the handler's traceback, so pytest can
    report it even when the alarm lands on a line-less instruction.
    """

    def stalled(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        return call(*args)
    except TimeoutError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    raise AssertionError(f"{call.__qualname__}{args} did not return within {seconds} s")


@pytest.fixture
def call_with_alarm():
    """The :func:`_call_with_alarm` helper, for calls that could hang."""
    return _call_with_alarm
