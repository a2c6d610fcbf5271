"""Shared fixtures and small helpers for the test suite."""

import numpy as np
import pytest

from bri import MemorySink, Workspace, invert_full, make_memory_provider


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def shifted(m: int, seed: int) -> np.ndarray:
    """Standard normal matrix plus m on the diagonal, comfortably invertible."""
    return rng(seed).standard_normal((m, m)) + m * np.eye(m)


def full_inverse(matrix: np.ndarray, k: int) -> np.ndarray:
    provider = make_memory_provider(matrix, k)
    sink = MemorySink(provider.layout)
    invert_full(provider, sink)
    return sink.finalize()


@pytest.fixture
def ws() -> Workspace:
    return Workspace()
