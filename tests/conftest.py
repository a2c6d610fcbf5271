"""Shared fixtures and small helpers for the test suite."""

import numpy as np
import pytest

from bri import (
    Frame,
    MemorySink,
    Workspace,
    invert_full,
    make_memory_provider,
    root_frame,
    split_frame,
)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def shifted(m: int, seed: int) -> np.ndarray:
    """Standard normal matrix plus m on the diagonal, comfortably invertible."""
    return rng(seed).standard_normal((m, m)) + m * np.eye(m)


def full_inverse(matrix: np.ndarray, k: int) -> np.ndarray:
    provider = make_memory_provider(matrix, k)
    sink = MemorySink(provider.layout)
    invert_full(provider, sink, Workspace())
    return sink.finalize()


def dense(provider) -> np.ndarray:
    """A provider's padded working matrix (order m + l), gathered block by block."""
    idx = range(1, provider.layout.k + 1)
    ws = Workspace()
    return np.block([[provider.fetch_block(i, j, ws).data for j in idx] for i in idx])


def replay(k: int, path) -> Frame:
    """The frame a branch path names: its labels followed from the root (path[0])."""
    frame = root_frame(k)
    for label in path[1:]:
        frame = split_frame(frame)[label]
    return frame


@pytest.fixture
def ws() -> Workspace:
    return Workspace()
