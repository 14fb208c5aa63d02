import pytest


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The native loader as in a new process, caching under ``tmp_path``."""
    from opweb import _native
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_CACHE", tmp_path)
    return _native
