"""Counters, the memory gauge, cost predictions, benchmark records."""

import pytest

from bri import (
    BadPartitionError,
    BenchRecord,
    CSV_COLUMNS,
    GaugeUnderflowError,
    MemoryGauge,
    OpCounters,
    predicted_counts,
)


class TestOpCounters:
    def test_starts_at_zero(self):
        c = OpCounters()
        assert (c.block_inversions, c.block_multiplications, c.block_subtractions, c.schur_nodes) == (0, 0, 0, 0)


class TestPredictedCounts:
    # geometric node total (4^(k-1) - 1) / 3, one extra inversion at the root
    @pytest.mark.parametrize(
        "k, nodes", [(2, 1), (3, 5), (4, 21), (5, 85), (6, 341), (7, 1365)]
    )
    def test_node_series(self, k, nodes):
        c = predicted_counts(k)
        assert c.schur_nodes == nodes
        assert c.block_inversions == nodes + 1
        assert c.block_multiplications == 2 * nodes
        assert c.block_subtractions == nodes

    def test_rejects_degenerate_partition(self):
        with pytest.raises(BadPartitionError):
            predicted_counts(1)


class TestMemoryGauge:
    def test_peak_tracks_high_water(self):
        g = MemoryGauge()
        for _ in range(3):
            g.on_alloc()
        g.on_release()
        g.on_release()
        g.on_alloc()
        assert g.live_blocks == 2
        assert g.peak_blocks == 3

    def test_release_below_zero_raises(self):
        g = MemoryGauge()
        g.on_alloc()
        g.on_release()
        with pytest.raises(GaugeUnderflowError):
            g.on_release()


class TestBenchRecord:
    def test_row_matches_csv_column_order(self):
        rec = BenchRecord(
            method="bri", m=24, k=4, wall_ms=1.5, peak_bytes=1440,
            n_block_inv=352, n_block_mul=672, seed=42,
        )
        row = rec.row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[: 3] == ["bri", 24, 4]
        assert row[CSV_COLUMNS.index("seed")] == 42
