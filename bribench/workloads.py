"""Workload definitions and seeded inputs for the bri benchmark.

Each workload names one input kind, its order and partition, and the
provider the timed operation reads from. Inputs come from the same named
PCG64 generator and formulas as ``bri gen``, so a seed regenerates the
same matrix bit for bit. The ``tiny`` sizes serve the smoke run in
``selftest.py``; they exercise the same code paths in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

import bri


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "randn" (randn + m*I) or "lssvm" (Gaussian-kernel system)
    order: int  # m; for lssvm the order is n + 1
    k: int
    source: str  # "memory", "kernel" or "file"
    tol: float  # relative max-norm gate against the dense LU oracle
    op: str  # "block": one invert_block query; "full": one `bri invert`
    warm_k: int  # partition of the warm-up input: same b, a shallower tree

    @property
    def b(self) -> int:
        return bri.BlockLayout.for_order(self.order, self.k).b

    def warm(self) -> "Workload":
        """Same kind, source and block width with a shallow tree, for warm-up."""
        lay = bri.BlockLayout.for_order(self.order, self.k)
        order = lay.b * self.warm_k - lay.l
        return Workload(self.name, self.kind, order, self.warm_k, self.source, self.tol, self.op, self.warm_k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("block-mem-deep", "randn", 192, 8, "memory", 1e-8, "block", 3),
        Workload("block-kernel-padded", "lssvm", 191, 8, "kernel", 1e-6, "block", 3),
        Workload("block-file-wide", "randn", 768, 4, "file", 1e-8, "block", 2),
        Workload("full-file-wide", "randn", 768, 4, "file", 1e-8, "full", 2),
    )
}

TINY = {
    "block-mem-deep": Workload("block-mem-deep", "randn", 24, 4, "memory", 1e-8, "block", 3),
    "block-kernel-padded": Workload("block-kernel-padded", "lssvm", 23, 4, "kernel", 1e-6, "block", 3),
    "block-file-wide": Workload("block-file-wide", "randn", 48, 4, "file", 1e-8, "block", 2),
    "full-file-wide": Workload("full-file-wide", "randn", 48, 4, "file", 1e-8, "full", 2),
}

KERNEL_DIM = 3  # `bri gen --kind lssvm` draws three-dimensional inputs
GAMMA = SIGMA = 1.0  # the `bri gen` defaults


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def randn_matrix(order: int, seed: int) -> np.ndarray:
    """`bri gen --kind randn`: standard normal entries plus order on the diagonal."""
    return _rng(seed).standard_normal((order, order)) + order * np.eye(order)


def kernel_spec(order: int, seed: int) -> bri.KernelSpec:
    """The inputs `bri gen --kind lssvm --n order-1` draws, as a kernel spec."""
    inputs = _rng(seed).standard_normal((order - 1, KERNEL_DIM))
    return bri.KernelSpec(inputs, gamma=GAMMA, sigma=SIGMA)


def input_path(workdir: Path, w: Workload) -> Path:
    return workdir / f"{w.name}-{w.order}.brim"


def write_input(w: Workload, seed: int, workdir: Path) -> Path | None:
    """Write the BRIM input a file workload reads; other sources need none."""
    if w.source != "file":
        return None
    path = input_path(workdir, w)
    bri.write_matrix(path, randn_matrix(w.order, seed))
    return path


def build_provider(w: Workload, seed: int, path: Path | None) -> bri.BlockProvider:
    """The provider one operation reads from: the set-up a user pays once."""
    if w.source == "memory":
        return bri.make_memory_provider(randn_matrix(w.order, seed), w.k)
    if w.source == "kernel":
        return bri.make_kernel_provider(kernel_spec(w.order, seed), w.k)
    return bri.make_file_provider(path, w.k)


def dense_input(w: Workload, seed: int) -> np.ndarray:
    """The order-m matrix itself, for the oracle and the LU reference."""
    if w.kind == "lssvm":
        return bri.kernel_matrix(kernel_spec(w.order, seed))
    return randn_matrix(w.order, seed)


def padded_inverse(w: Workload, oracle: np.ndarray) -> np.ndarray:
    """Oracle inverse of the working matrix [[M, 0], [0, I]] of order m + l."""
    lay = bri.BlockLayout.for_order(w.order, w.k)
    out = np.eye(lay.n)
    out[: lay.m, : lay.m] = oracle
    return out


def targets(w: Workload, seed: int) -> Iterator[tuple[int, int]]:
    """Block targets (alpha, beta), uniform over 1..k, replayed from the seed."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    while True:
        alpha, beta = rng.integers(1, w.k + 1, size=2)
        yield int(alpha), int(beta)
