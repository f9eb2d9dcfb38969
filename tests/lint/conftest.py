"""Shared helpers for the per-file rules' own test suite."""

from pathlib import Path

import pytest

from repro.analyze import run_analysis
from repro.lint import collect_modules

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def lint_fixture():
    """Run ``repro-analyze check``'s full check set over one fixture tree by name."""

    def run(name, *, ignore=None):
        return run_analysis(collect_modules([FIXTURES / name]), ignore=ignore)

    return run
