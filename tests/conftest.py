import pytest

from wpcnsim import mission
from wpcnsim.sweep import default_sweep


@pytest.fixture(autouse=True)
def empty_checked_slot(monkeypatch):
    """Each test starts with no config checked, whatever ran before it."""
    monkeypatch.setattr(mission, "_last", (None, None))


@pytest.fixture(scope="session")
def default_table():
    """The standard study grid, evaluated once per test session."""
    return default_sweep()
