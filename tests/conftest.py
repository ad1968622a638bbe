"""Fixtures shared by the test modules."""

import pytest

from farsa import datasets


@pytest.fixture
def small_blocks(monkeypatch):
    """Parse in blocks of 64 KB, so that inputs of a few hundred KB span several."""
    monkeypatch.setattr(datasets, "_BLOCK_CHARS", 1 << 16)
