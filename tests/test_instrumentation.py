"""Counters, the memory gauge, cost predictions, benchmark rows."""

import csv

import pytest

from bri import (
    BadPartitionError,
    MemorySink,
    GaugeUnderflowError,
    MemoryGauge,
    OpCounters,
    Workspace,
    invert_full,
    make_memory_provider,
    predicted_counts,
)
from bri.cli import main
from conftest import shifted


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
    def test_row_matches_csv_column_order(self, capsys, tmp_path):
        # each bri row's cells sit under the columns of the run's own counters
        path = tmp_path / "bench.csv"
        assert main(["bench", "--m", "16", "--k-list", "4", "--repeat", "1",
                     "--csv", str(path)]) == 0
        capsys.readouterr()
        with open(path, newline="") as fh:
            header, bri_row, lu_row = list(csv.reader(fh))
        provider = make_memory_provider(shifted(16, 0), 4)
        ws = Workspace()
        invert_full(provider, MemorySink(provider.layout), ws)
        rec = dict(zip(header, bri_row))
        assert len(bri_row) == len(lu_row) == len(header)
        assert bri_row[:3] == ["bri", "16", "4"]
        assert int(rec["peak_bytes"]) == ws.gauge.peak_blocks * 8 * 4 * 4
        assert int(rec["n_block_inv"]) == ws.counters.block_inversions
        assert int(rec["n_block_mul"]) == ws.counters.block_multiplications
        assert rec["seed"] == "42"
