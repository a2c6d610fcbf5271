"""Operation counters, memory gauge, and cost predictions.

Counting conventions
--------------------
One *block operation* is one call on b-by-b operands: an inversion, a
multiplication, or a subtraction. The recursive engine performs, per block
run, exactly

    schur_nodes            = (4**(k-1) - 1) // 3
    block_inversions       = schur_nodes + 1      (one per node + final)
    block_multiplications  = 2 * schur_nodes
    block_subtractions     = schur_nodes

and :func:`predicted_counts` returns those closed forms so tests can assert
integer equality against measured counters.

The memory gauge counts *live engine-managed block buffers* (b*b float64
each), not heap bytes: provider-internal file buffers, the multiply's
scratch panel and LAPACK's work array are outside it. Block operations
write over their first operand, so one block run peaks at exactly k
blocks, k*b*b*8 bytes. Each workspace holds one tally and one gauge. A full
inversion runs every block on one workspace; each run releases all its
blocks before the next starts, so the tally is the sum over runs and the
peak is the largest run's. Nothing in this module is global state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPartitionError, GaugeUnderflowError

__all__ = [
    "OpCounters",
    "MemoryGauge",
    "predicted_counts",
]


@dataclass
class OpCounters:
    """Tally of block operations for one or more runs."""

    block_inversions: int = 0
    block_multiplications: int = 0
    block_subtractions: int = 0
    schur_nodes: int = 0


class MemoryGauge:
    """High-water mark of concurrently live block buffers.

    Every allocation of a block-sized buffer registers here and every
    release deregisters; releasing more than was registered raises
    :class:`GaugeUnderflowError`.
    """

    __slots__ = ("live_blocks", "peak_blocks")

    def __init__(self) -> None:
        self.live_blocks = 0
        self.peak_blocks = 0

    def on_alloc(self) -> None:
        self.live_blocks += 1
        if self.live_blocks > self.peak_blocks:
            self.peak_blocks = self.live_blocks

    def on_release(self) -> None:
        if self.live_blocks == 0:
            raise GaugeUnderflowError("release of a buffer with none live")
        self.live_blocks -= 1


def predicted_counts(k: int) -> OpCounters:
    """Exact block-operation counts for one single-block inversion run.

    The reduction tree has (4**(k-1) - 1) / 3 nodes: levels of 4**j nodes
    for j = 0 .. k-2. Each node costs 1 inversion + 2 multiplications +
    1 subtraction, and the run finishes with one more dense inversion.
    """
    if k < 2:
        raise BadPartitionError(f"partition needs k >= 2, got {k}")
    nodes = (4 ** (k - 1) - 1) // 3
    return OpCounters(
        block_inversions=nodes + 1,
        block_multiplications=2 * nodes,
        block_subtractions=nodes,
        schur_nodes=nodes,
    )

