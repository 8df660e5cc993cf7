"""Fixtures shared by the test modules."""

import pytest

import slmopt.objectives


@pytest.fixture
def scratch_registry(monkeypatch):
    """The objective registry as a copy for one test: whatever the test
    registers is gone at teardown."""
    monkeypatch.setattr(slmopt.objectives, "_REGISTRY", dict(slmopt.objectives._REGISTRY))
