import errno
import traceback

import pytest

from fidstore import durability, integrity_dbms, zone_sim


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


@pytest.fixture
def fail_io(monkeypatch):
    """fail_io(name, nth) makes the nth call from now on of os.fsync or
    os.replace (name "fsync" or "replace"), as the durability module calls
    it, raise OSError(EIO) once. It returns a dict that the failing call
    fills with "args" and "stack", the names of the functions on the call
    stack, so a test can check which durable write failed."""
    def arm(name: str, nth: int = 1) -> dict:
        original = getattr(durability.os, name)
        calls = []
        failed = {}

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == nth:
                failed["args"] = args
                failed["stack"] = [f.name for f in traceback.extract_stack()]
                raise OSError(errno.EIO, f"injected {name} failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(durability.os, name, failing)
        return failed

    return arm
