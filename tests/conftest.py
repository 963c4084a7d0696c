import mmap

import numpy as np
import pytest

# one line per acceptance criterion, echoed in the terminal summary so the
# pass/fail record survives pytest's stdout capture
ACCEPTANCE_LINES = []


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def mapped_bytes(monkeypatch):
    """mapped_bytes() is the length of every anonymous memory map made since the test began.

    tracemalloc sees no map, so a bound on what a step allocates adds these bytes to its traced peak.
    """
    made, real = [], mmap.mmap

    def counted(fileno, length, *args, **kwargs):
        if fileno == -1:
            made.append(length)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", counted)
    return lambda: sum(made)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
