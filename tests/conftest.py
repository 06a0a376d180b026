"""Shared test fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name; the returned list grows by one per call."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
