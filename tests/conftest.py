"""Fixtures shared by the test modules."""

import collections
from pathlib import Path

import pytest

from surfmimo import presets


@pytest.fixture
def file_reads(monkeypatch):
    """A Counter of the file names that the preset and MCS-table loaders read
    from here on.  The shipped presets are dropped first, so their next use
    parses them again."""
    presets.shipped.cache_clear()
    reads = collections.Counter()
    real = presets._read_text

    def counted(path):
        reads[Path(str(path)).name] += 1
        return real(path)

    monkeypatch.setattr(presets, "_read_text", counted)
    return reads
