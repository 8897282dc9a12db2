import pytest

from fidstore import integrity_dbms, zone_sim


def _count_calls(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def privacy_checkpoints(monkeypatch):
    """Counts the privacy zone's checkpoints."""
    return _count_calls(monkeypatch, zone_sim, "checkpoint_truncate")


@pytest.fixture
def integrity_checkpoints(monkeypatch):
    """Counts the integrity zone's checkpoints."""
    return _count_calls(monkeypatch, integrity_dbms.Database, "checkpoint")
