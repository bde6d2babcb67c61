"""Shared fixtures: MNIST data discovery, skip handling, and the
acceptance-criteria summary block."""

import os
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
    """The first candidate directory that holds all four IDX files of
    ``cli._MNIST_FILES``; skips the calling test when there is none. A
    directory that a failed ``bijepa fetch-mnist`` left half filled does
    not count, since a run refuses it."""
    candidates = [
        os.environ.get("BIJEPA_MNIST_DIR"),
        "mnist-data",
        Path.home() / "mnist-data",
    ]
    for cand in candidates:
        if cand and all((Path(cand) / name).exists() for name in cli._MNIST_FILES):
            return Path(cand)
    pytest.skip("MNIST IDX files not available "
                "(run `bijepa fetch-mnist` or set BIJEPA_MNIST_DIR)")


@pytest.fixture(scope="session")
def mnist_dir():
    return find_mnist_dir()
