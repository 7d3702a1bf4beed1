# makes the tests directory importable (oracles.py) regardless of cwd

import os

import numpy as np
import pytest

from ctpsim import noise


@pytest.fixture
def physical_memory(monkeypatch):
    """Setter that makes os.sysconf report nbytes of physical memory (pages of one byte)."""
    real = os.sysconf

    def set_bytes(nbytes):
        fake = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf",
                            lambda name: fake[name] if name in fake else real(name))
    return set_bytes


@pytest.fixture
def flipped_seed_words(monkeypatch):
    """Make noise._seed_words disagree with numpy's SeedSequence in one bit of every row."""
    real = noise._seed_words

    def flipped(seeds):
        words = real(seeds)
        words[:, 0] ^= np.uint64(1)
        return words
    monkeypatch.setattr(noise, "_seed_words", flipped)
