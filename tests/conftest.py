# makes the tests directory importable (oracles.py) regardless of cwd

import os

import pytest


@pytest.fixture
def physical_memory(monkeypatch):
    """Setter that makes os.sysconf report nbytes of physical memory (pages of one byte)."""
    real = os.sysconf

    def set_bytes(nbytes):
        fake = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf",
                            lambda name: fake[name] if name in fake else real(name))
    return set_bytes

