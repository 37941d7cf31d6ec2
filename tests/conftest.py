"""Fixtures shared across the test packages."""

import pytest

from repro.serial import wire as W


@pytest.fixture
def pure_visitor(monkeypatch):
    """The whole test on the pure visitor: the compiled one unbound."""
    monkeypatch.setattr(W, "_compiled_encode", None)
    monkeypatch.setattr(W, "_compiled_decode", None)
