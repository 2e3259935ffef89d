"""Fixtures shared by the test modules."""

import pytest

from support import register_mutant


@pytest.fixture
def mutant_suite(monkeypatch):
    """The name of a suite that fails: a deliberately wrong decider
    registered for the length of one test."""
    return register_mutant(monkeypatch)
