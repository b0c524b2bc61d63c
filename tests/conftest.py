import sys
from pathlib import Path

import pytest

# make reference_channel importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    """Shared sink for CRITERION lines, echoed after the run."""
    return _criterion_lines


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture()
def forked(monkeypatch):
    """Eight usable cores whatever the machine has; lists the worker processes started.

    The drivers cap their workers at the usable cores, so without the patch
    a one-core machine would never take the multi-process path.
    """
    import os
    from multiprocessing.context import ForkProcess

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    started = []
    start = ForkProcess.start

    def spy(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(ForkProcess, "start", spy)
    return started
