"""Shared fixtures: MNIST data discovery, skip handling, and the
acceptance-criteria summary block."""

import sys
from pathlib import Path

import pytest

from bijepa import cli

sys.path.insert(0, str(Path(__file__).parent))

# one line per acceptance criterion, filled by tests/test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def find_mnist_dir() -> Path:
    """The directory a run would read MNIST from, by ``cli``'s own rule
    (``BIJEPA_MNIST_DIR``, then ``./mnist-data``), or else the home
    directory's ``mnist-data``; skips the calling test when none holds
    all four IDX files."""
    for explicit in (None, str(Path.home() / "mnist-data")):
        try:
            return cli.resolve_mnist_dir(explicit)
        except FileNotFoundError:
            pass
    pytest.skip("MNIST IDX files not available "
                "(run `bijepa fetch-mnist` or set BIJEPA_MNIST_DIR)")


@pytest.fixture(scope="session")
def mnist_dir():
    return find_mnist_dir()
