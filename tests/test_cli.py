"""Command-line front end, exercised in process through main()."""

import csv
import gc
import json
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import bri.cli
import bri.errors
from bri import (
    BriError,
    GaugeUnderflowError,
    MemorySink,
    SingularBlockError,
    SingularPivotError,
    Workspace,
    invert_full,
    lu_invert_full,
    make_memory_provider,
    predicted_counts,
    read_matrix,
    write_matrix,
)
from bri.cli import main
from conftest import shifted


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_randn_is_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.brim", tmp_path / "b.brim"
        assert run(capsys, "gen", "--kind", "randn", "--m", "8", "--out", str(p1))[0] == 0
        assert run(capsys, "gen", "--kind", "randn", "--m", "8", "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_picks_the_matrix(self, capsys, tmp_path):
        paths = [tmp_path / f"{name}.brim" for name in ("a", "b", "default")]
        for path, seed in zip(paths, (["--seed", "7"], ["--seed", "7"], [])):
            assert run(capsys, "gen", "--kind", "randn", "--m", "8", "--out", str(path), *seed)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()

    def test_randn_diagonal_shift(self, capsys, tmp_path):
        path = tmp_path / "a.brim"
        run(capsys, "gen", "--kind", "randn", "--m", "12", "--out", str(path))
        a = read_matrix(path)
        # diagonal carries the +m shift, off-diagonal stays standard normal
        assert np.diag(a).min() > 12 - 5
        assert np.abs(a - np.diag(np.diag(a))).max() < 5

    def test_spd_output(self, capsys, tmp_path):
        path = tmp_path / "s.brim"
        run(capsys, "gen", "--kind", "spd", "--m", "12", "--out", str(path))
        a = read_matrix(path)
        np.testing.assert_array_equal(a, a.T)
        for j in range(1, 13):
            assert np.linalg.det(a[:j, :j]) > 0

    def test_lssvm_structure(self, capsys, tmp_path):
        path = tmp_path / "k.brim"
        code, out, _ = run(capsys, "gen", "--kind", "lssvm", "--n", "3", "--gamma", "1",
                           "--out", str(path))
        assert code == 0
        a = read_matrix(path)
        assert a.shape == (4, 4)
        assert a[0, 0] == 0.0
        np.testing.assert_allclose(np.diag(a)[1:], 2.0, atol=0)

    def test_missing_size_flag_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "randn", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "--m" in err
        code, _, err = run(capsys, "gen", "--kind", "lssvm", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "--n" in err

    def test_json_summary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--kind", "randn", "--m", "6",
                           "--out", str(tmp_path / "a.brim"), "--json")
        info = json.loads(out)
        assert code == 0
        assert info["kind"] == "randn" and info["m"] == 6 and info["seed"] == 42


class TestInvert:
    def test_bri_and_lu_agree(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(16, 100))
        b1, b2 = tmp_path / "bri.brim", tmp_path / "lu.brim"
        assert run(capsys, "invert", "--in", str(src), "--out", str(b1), "--k", "4")[0] == 0
        assert run(capsys, "invert", "--in", str(src), "--out", str(b2), "--method", "lu")[0] == 0
        x, y = read_matrix(b1), read_matrix(b2)
        assert np.abs(x - y).max() <= 1e-8 * np.abs(y).max()

    def test_padded_order(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        a = shifted(10, 101)
        write_matrix(src, a)
        out = tmp_path / "inv.brim"
        code, text, _ = run(capsys, "invert", "--in", str(src), "--out", str(out), "--k", "4")
        assert code == 0
        got = read_matrix(out)
        assert got.shape == (10, 10)
        ref = np.linalg.inv(a)
        assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()
        assert "l=2" in text

    def test_bri_requires_k(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, np.eye(4))
        code, _, err = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x"))
        assert code == 3 and "--k" in err

    def test_oversized_k_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(4, 102))
        code, _, _ = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x"),
                         "--k", "1")
        assert code == 3

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_out_naming_the_input_is_refused(self, capsys, tmp_path, link):
        # BrimSink would truncate the file the provider is still reading.
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(12, 112))
        before = src.read_bytes()
        out = src
        if link:
            out = tmp_path / "link.brim"
            out.symlink_to(src)
        code, _, err = run(capsys, "invert", "--in", str(src), "--out", str(out), "--k", "4")
        assert code == 3 and "input" in err
        assert src.read_bytes() == before

    def test_unrunnable_layout_leaves_existing_out(self, capsys, tmp_path):
        # Order 3 split 7 ways needs l=4 > 2b=2 padding indices.
        src, out = tmp_path / "a.brim", tmp_path / "existing.brim"
        write_matrix(src, shifted(3, 113))
        write_matrix(out, np.eye(5))
        before = out.read_bytes()
        code, _, err = run(capsys, "invert", "--in", str(src), "--out", str(out), "--k", "7")
        assert code == 3 and "padding" in err
        assert out.read_bytes() == before

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "invert", "--in", str(tmp_path / "nope.brim"),
                           "--out", str(tmp_path / "x"), "--k", "2")
        assert code == 3

    def test_singular_pivot_exit_code(self, capsys, tmp_path):
        src = tmp_path / "s.brim"
        a = shifted(6, 103)
        a[2:4, 2:4] = 0.0
        write_matrix(src, a)
        code, _, err = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x"),
                           "--k", "3")
        assert code == 2
        assert "branch" in err

    def test_json_summary_counts(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(8, 104))
        code, out, _ = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x.brim"),
                           "--k", "4", "--json")
        info = json.loads(out)
        assert code == 0
        assert info["block_inversions"] == 16 * 22
        assert info["block_multiplications"] == 16 * 42
        assert info["peak_blocks"] == 4
        assert info["peak_rss_mb"] > 0

    def test_jobs_flag_is_usage_error(self, capsys, tmp_path):
        # block runs are sequential; there is no --jobs flag
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(8, 104))
        code, _, err = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x.brim"),
                           "--k", "4", "--jobs", "2")
        assert code == 3 and "--jobs" in err

    def test_seed_flag_is_usage_error(self, capsys, tmp_path):
        # nothing reads a seed when inverting; there is no --seed flag
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(8, 104))
        code, _, err = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x.brim"),
                           "--k", "4", "--seed", "7")
        assert code == 3 and "--seed" in err

    def test_lu_json_summary(self, capsys, tmp_path):
        src, out = tmp_path / "a.brim", tmp_path / "x.brim"
        a = shifted(12, 106)
        write_matrix(src, a)
        code, text, _ = run(capsys, "invert", "--in", str(src), "--out", str(out),
                            "--method", "lu", "--json")
        info = json.loads(text)
        assert code == 0
        assert sorted(info) == ["command", "m", "method", "out", "peak_bytes", "wall_ms"]
        assert info["m"] == 12
        assert info["wall_ms"] > 0
        # resident input + the working copy that becomes the inverse
        assert info["peak_bytes"] == 2 * 8 * 12 * 12
        np.testing.assert_array_equal(read_matrix(out), lu_invert_full(a))


# Every block-recursive run prints one report, in this key order.
REPORT_KEYS = ["wall_ms", "peak_blocks", "peak_rss_mb", "peak_bytes", "block_inversions",
               "block_multiplications", "block_subtractions", "schur_nodes"]


# m=10 pads to 12 (b=3, l=2); m=16 splits into blocks of 4.
@pytest.mark.parametrize("m, b", [(10, 3), (16, 4)], ids=["padded", "unpadded"])
def test_invert_and_invert_block_print_one_report(capsys, tmp_path, m, b):
    src = tmp_path / "a.brim"
    write_matrix(src, shifted(m, 120))
    code, out, _ = run(capsys, "invert", "--in", str(src), "--out", str(tmp_path / "x.brim"),
                       "--k", "4", "--json")
    full = json.loads(out)
    assert code == 0
    code, out, _ = run(capsys, "invert-block", "--in", str(src), "--k", "4",
                       "--row", "2", "--col", "3", "--json")
    single = json.loads(out)
    assert code == 0
    assert [key for key in full if key in REPORT_KEYS] == REPORT_KEYS
    assert [key for key in single if key in REPORT_KEYS] == REPORT_KEYS
    counts = asdict(predicted_counts(4))
    assert {key: single[key] for key in counts} == counts
    assert single["peak_bytes"] == 4 * 8 * b * b
    assert single["wall_ms"] > 0


class TestInvertBlock:
    def test_scalar_value_output(self, capsys, tmp_path):
        src = tmp_path / "m.brim"
        write_matrix(src, np.array([[4.0, 2.0], [1.0, 3.0]]))
        code, out, _ = run(capsys, "invert-block", "--in", str(src), "--k", "2",
                           "--row", "1", "--col", "1")
        assert code == 0
        assert "value: 0.3" in out

    def test_json_block_payload(self, capsys, tmp_path):
        src = tmp_path / "m.brim"
        write_matrix(src, np.array([[4.0, 2.0], [1.0, 3.0]]))
        code, out, _ = run(capsys, "invert-block", "--in", str(src), "--k", "2",
                           "--row", "2", "--col", "1", "--json")
        info = json.loads(out)
        assert code == 0
        assert info["block"] == [[pytest.approx(-0.1, abs=1e-15)]]
        assert info["peak_blocks"] == info["bound"] == 2  # exactly k live blocks
        assert info["peak_rss_mb"] > 0

    def test_out_of_range_target(self, capsys, tmp_path):
        src = tmp_path / "m.brim"
        write_matrix(src, np.eye(4))
        code, _, _ = run(capsys, "invert-block", "--in", str(src), "--k", "2",
                         "--row", "3", "--col", "1")
        assert code == 3

    def test_block_file_output(self, capsys, tmp_path):
        src = tmp_path / "m.brim"
        a = shifted(8, 105)
        write_matrix(src, a)
        out = tmp_path / "blk.brim"
        code, _, _ = run(capsys, "invert-block", "--in", str(src), "--k", "4",
                         "--row", "2", "--col", "3", "--out", str(out))
        assert code == 0
        np.testing.assert_allclose(read_matrix(out), np.linalg.inv(a)[2:4, 4:6], atol=1e-10)

    def test_large_block_without_out_is_not_printed(self, capsys, tmp_path):
        src = tmp_path / "m.brim"
        write_matrix(src, shifted(34, 117))  # b = 17
        code, out, _ = run(capsys, "invert-block", "--in", str(src), "--k", "2",
                           "--row", "1", "--col", "2")
        assert code == 0
        assert "pass --out to save it" in out and "[[" not in out

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_out_naming_the_input_is_refused(self, capsys, tmp_path, link):
        # Writing the block over --in would replace the whole input with it.
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(12, 116))
        before = src.read_bytes()
        out = src
        if link:
            out = tmp_path / "link.brim"
            out.symlink_to(src)
        code, _, err = run(capsys, "invert-block", "--in", str(src), "--k", "4",
                           "--row", "1", "--col", "2", "--out", str(out))
        assert code == 3 and "input" in err
        assert src.read_bytes() == before


class TestVerify:
    def test_self_check_passes(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(12, 106))
        code, out, _ = run(capsys, "verify", "--in", str(src), "--k", "3")
        assert code == 0
        assert "pass" in out

    def test_corrupted_inverse_fails_with_location(self, capsys, tmp_path):
        src, bad = tmp_path / "a.brim", tmp_path / "bad.brim"
        a = shifted(8, 107)
        write_matrix(src, a)
        wrong = np.linalg.inv(a)
        wrong[3, 5] += 1e-3
        write_matrix(bad, wrong)
        code, out, _ = run(capsys, "verify", "--in", str(src), "--k", "2",
                           "--inverse", str(bad))
        assert code == 1
        assert "FAIL" in out and "(3, 5)" in out

    def test_tol_sets_the_bound(self, capsys, tmp_path):
        src, near = tmp_path / "a.brim", tmp_path / "near.brim"
        a = shifted(8, 119)
        write_matrix(src, a)
        inverse = np.linalg.inv(a)
        inverse[2, 6] += 1e-6 * np.abs(inverse).max()  # about 1e-6 relative
        write_matrix(near, inverse)
        argv = ["verify", "--in", str(src), "--inverse", str(near), "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["pass"] is False
        code, out, _ = run(capsys, *argv, "--tol", "1e-5")
        info = json.loads(out)
        assert code == 0
        assert (info["pass"], info["tol"], info["at"]) == (True, 1e-5, [2, 6])

    def test_non_finite_error_prints_strict_json(self, capsys, tmp_path):
        # JSON has no NaN: an all-NaN candidate reports a null error, not NaN.
        src, nan = tmp_path / "eye.brim", tmp_path / "nan.brim"
        write_matrix(src, np.eye(4))
        write_matrix(nan, np.full((4, 4), np.nan))
        code, out, _ = run(capsys, "verify", "--in", str(src), "--inverse", str(nan), "--json")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        info = json.loads(out, parse_constant=refuse)
        assert code == 1
        assert info["max_rel_error"] is None
        assert info["at"] == [0, 0]
        assert info["pass"] is False

    def test_shape_mismatch_is_usage_error(self, capsys, tmp_path):
        src, other = tmp_path / "a.brim", tmp_path / "b.brim"
        write_matrix(src, shifted(8, 108))
        write_matrix(other, np.eye(4))
        code, _, _ = run(capsys, "verify", "--in", str(src), "--k", "2",
                         "--inverse", str(other))
        assert code == 3

    def test_json_report(self, capsys, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(6, 109))
        code, out, _ = run(capsys, "verify", "--in", str(src), "--k", "2", "--json")
        info = json.loads(out)
        assert code == 0
        assert info["pass"] is True and info["tol"] == 1e-8

    def test_k_is_needed_only_to_recompute(self, capsys, tmp_path):
        src, inv = tmp_path / "a.brim", tmp_path / "inv.brim"
        a = shifted(8, 115)
        write_matrix(src, a)
        write_matrix(inv, np.linalg.inv(a))
        assert run(capsys, "verify", "--in", str(src), "--inverse", str(inv))[0] == 0
        code, _, err = run(capsys, "verify", "--in", str(src))
        assert code == 3 and "--k" in err

    @pytest.mark.parametrize("given, bound", [(True, 2.5), (False, 2.6)],
                             ids=["inverse", "recompute"])
    def test_peak_memory(self, capsys, tmp_path, given, bound):
        # The LU inverse and the candidate, with the gap computed in the
        # candidate's buffer; the input lives only while LU inverts it, beside
        # LAPACK's m-by-64 work array. Recomputing adds the block runs' buffers.
        # Measured: 2.33 with --inverse, 2.39 recomputing.
        m = 256
        src, inv = tmp_path / "a.brim", tmp_path / "inv.brim"
        write_matrix(src, shifted(m, 114))
        assert run(capsys, "invert", "--in", str(src), "--out", str(inv), "--k", "4")[0] == 0
        argv = ["verify", "--in", str(src), "--k", "4"] + (["--inverse", str(inv)] if given else [])
        tracemalloc.start()
        try:
            code = run(capsys, *argv)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound * m * m * 8

    def test_order_above_materialize_limit_is_refused_unread(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(6, 110))

        def unread(path):
            raise AssertionError("verify read the payload of an oversized input")

        monkeypatch.setattr(bri.cli, "MATERIALIZE_LIMIT", 5)
        monkeypatch.setattr(bri.cli, "read_matrix", unread)
        code, _, err = run(capsys, "verify", "--in", str(src), "--k", "2")
        assert code == 3
        assert err == "error: refusing to materialize order 6 > configured ceiling 5\n"

    # No target runs with k = 1, nor with l = 4 > 2b padding indices at k = 7.
    @pytest.mark.parametrize(
        "m, k, match", [(6, 1, "k >= 2"), (3, 7, "more than two blocks")],
        ids=["k-1", "padding-over-2b"],
    )
    def test_unrunnable_k_is_refused_unread(self, capsys, monkeypatch, tmp_path, m, k, match):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(m, 118))

        def unread(path):
            raise AssertionError("verify read the payload before checking --k")

        monkeypatch.setattr(bri.cli, "read_matrix", unread)
        code, _, err = run(capsys, "verify", "--in", str(src), "--k", str(k))
        assert code == 3
        assert match in err

    # A NaN or negative bound would report FAIL on an exact inverse; an
    # infinite one would pass anything.
    @pytest.mark.parametrize(
        "tol, match",
        [("nan", "--tol"), ("-1", "--tol"), ("inf", "--tol"), ("abc", "bad tolerance")],
        ids=["nan", "-1", "inf", "abc"],
    )
    def test_unusable_tol_is_refused_unread(self, capsys, monkeypatch, tmp_path, tol, match):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(6, 112))

        def unread(path):
            raise AssertionError("verify read the input before checking --tol")

        monkeypatch.setattr(bri.cli, "read_matrix", unread)
        code, _, err = run(capsys, "verify", "--in", str(src), "--k", "2", "--tol", tol)
        assert code == 3
        assert "--tol" in err and match in err

    def test_inverse_of_other_order_is_refused_unread(self, capsys, monkeypatch, tmp_path):
        src, other = tmp_path / "a.brim", tmp_path / "b.brim"
        write_matrix(src, shifted(6, 111))
        write_matrix(other, np.eye(9))

        def unread(path):
            raise AssertionError("verify read a payload before checking the inverse's order")

        monkeypatch.setattr(bri.cli, "read_matrix", unread)
        code, _, err = run(capsys, "verify", "--in", str(src), "--k", "2",
                           "--inverse", str(other))
        assert code == 3
        assert "inverse order 9" in err


BENCH_COLUMNS = ("method", "m", "k", "wall_ms", "peak_bytes", "n_block_inv", "n_block_mul", "seed")


class TestBench:
    def test_csv_cells(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--m", "16", "--k-list", "2,4",
                         "--repeat", "1", "--csv", str(csv_path))
        assert code == 0
        with open(csv_path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert tuple(header) == BENCH_COLUMNS
        wall = BENCH_COLUMNS.index("wall_ms")
        assert all(re.fullmatch(r"\d+\.\d{3}", row[wall]) for row in rows)
        assert [row[:wall] + row[wall + 1:] for row in rows] == [
            ["bri", "16", "2", "1024", "8", "8", "42"],
            ["bri", "16", "4", "512", "352", "672", "42"],
            # dense LU: the input plus the working copy that becomes the inverse
            ["lu", "16", "1", str(2 * 8 * 16 * 16), "1", "0", "42"],
        ]

    def test_seed_fills_every_row(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--m", "16", "--k-list", "2,4", "--repeat", "1",
                         "--seed", "7", "--csv", str(csv_path))
        assert code == 0
        with open(csv_path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["seed"] for r in records] == ["7"] * 3

    def test_unwritable_csv_is_refused_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        csv_path = tmp_path / "missing" / "bench.csv"

        def unrun(provider, sink):
            raise AssertionError("bench ran a block sweep before opening --csv")

        monkeypatch.setattr(bri.cli, "_bri", unrun)
        code, _, err = run(capsys, "bench", "--m", "16", "--k-list", "2", "--repeat", "1",
                           "--csv", str(csv_path))
        assert code == 3
        assert str(csv_path) in err

    # A k that no target can run, listed after a runnable one: k = 1, and
    # l = 5 > 2b padding indices at m = 7, k = 6.
    @pytest.mark.parametrize(
        "m, k_list, match",
        [("12", "2,1", "partition needs k >= 2"), ("7", "2,6", "more than two blocks' worth")],
        ids=["k-1", "padding-over-2b"],
    )
    def test_unrunnable_k_is_refused_before_the_sweep(
        self, capsys, monkeypatch, tmp_path, m, k_list, match
    ):
        csv_path = tmp_path / "bench.csv"
        calls = []
        real_bri = bri.cli._bri

        def counted(provider, sink):
            calls.append(provider.layout.k)
            return real_bri(provider, sink)

        monkeypatch.setattr(bri.cli, "_bri", counted)
        code, _, err = run(capsys, "bench", "--m", m, "--k-list", k_list, "--repeat", "1",
                           "--csv", str(csv_path))
        assert code == 3
        assert match in err
        assert calls == []
        assert not csv_path.exists()

    def test_csv_row_count_and_schema(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "--m", "16", "--k-list", "2,4",
                           "--repeat", "2", "--csv", str(csv_path))
        assert code == 0
        with open(csv_path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert tuple(records[0]) == BENCH_COLUMNS
        assert len(records) == 2 * (2 + 1)  # per repeat: one row per k, one LU row
        assert sum(1 for r in records if r["method"] == "lu") == 2
        assert {r["k"] for r in records if r["method"] == "bri"} == {"2", "4"}

    def test_medians_reported_per_method(self, capsys):
        code, out, _ = run(capsys, "bench", "--m", "12", "--k-list", "2,3", "--repeat", "1")
        assert code == 0
        assert "k=2" in out and "k=3" in out and "dense" in out

    def test_bad_k_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--m", "12", "--k-list", "2,zebra")
        assert code == 3
        assert "k list" in err

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["--m", "12", "--k-list", ","], "empty k list"),
            (["--m", "12", "--k-list", "2", "--repeat", "0"], "--repeat"),
            (["--m", "1", "--k-list", "2"], "--m >= 2"),
            (["--m", "12", "--k-list", "2", "--kind", "spd"], "unrecognized arguments"),
            (["--m", "12", "--k-list", "2", "--sigma", "2"], "unrecognized arguments"),
        ],
        ids=["empty-k-list", "repeat-0", "order-1", "kind-spd", "sigma-2"],
    )
    def test_unusable_sweep_is_usage_error(self, capsys, argv, match):
        code, _, err = run(capsys, "bench", *argv)
        assert code == 3
        assert match in err

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--m", "12", "--k-list", "2", "--repeat", "1",
                           "--json")
        info = json.loads(out)
        assert code == 0
        methods = [row["method"] for row in info["rows"]]
        assert methods == ["bri", "lu"]


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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 3

    # numpy's PCG64 refuses a negative seed with a ValueError, which is no
    # usage error; the seed is checked before anything is generated.
    @pytest.mark.parametrize(
        "argv, seed, match",
        [
            (["gen", "--kind", "randn", "--m", "4", "--out"], "-1", "--seed"),
            (["bench", "--m", "8", "--k-list", "2", "--csv"], "-1", "--seed"),
            (["gen", "--kind", "randn", "--m", "4", "--out"], "abc", "bad seed"),
            (["bench", "--m", "8", "--k-list", "2", "--csv"], "abc", "bad seed"),
        ],
        ids=["gen", "bench", "gen-abc", "bench-abc"],
    )
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, argv, seed, match):
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, str(out), "--seed", seed)
        assert code == 3
        assert "--seed" in err and match in err
        assert not out.exists()


ERROR_TYPES = [
    obj for obj in vars(bri.errors).values() if isinstance(obj, type) and issubclass(obj, BriError)
]


class TestExitCodes:
    @pytest.mark.parametrize("err", ERROR_TYPES, ids=lambda err: err.__name__)
    def test_error_type_carries_its_exit_code(self, err):
        singular = (SingularBlockError, SingularPivotError)
        assert err.exit_code == (2 if err in singular else 3)

    def test_any_library_error_exits_with_its_code(self, capsys, monkeypatch, tmp_path):
        def fail(args):
            raise GaugeUnderflowError("block released twice")

        monkeypatch.setattr(bri.cli, "cmd_gen", fail)
        code, _, err = run(capsys, "gen", "--kind", "randn", "--m", "4",
                           "--out", str(tmp_path / "a.brim"))
        assert code == 3
        assert "released twice" in err


class TestOrderZero:
    # A well-formed header of order 0 and no payload: refused as bad input
    # before any LAPACK call, not failed inside one with a traceback.
    @pytest.mark.parametrize(
        "argv",
        [["invert", "--method", "lu", "--out", "{out}"], ["verify", "--k", "2"]],
        ids=["invert-lu", "verify"],
    )
    def test_order_zero_input_is_refused(self, capsys, tmp_path, argv):
        src = tmp_path / "empty.brim"
        src.write_bytes(bri.formats._pack_header(0))
        argv = [arg.format(out=tmp_path / "x.brim") for arg in argv] + ["--in", str(src)]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "order 0" in err and "Traceback" not in err


class TestInputFileClosed:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["invert", "--k", "2", "--out", "{out}"], 0),
            (["invert", "--k", "3", "--out", "{out}"], 2),
            (["invert", "--k", "1", "--out", "{out}"], 3),
            (["invert-block", "--k", "2", "--row", "1", "--col", "2"], 0),
            (["invert-block", "--k", "2", "--row", "3", "--col", "1"], 3),
            (["verify", "--k", "1"], 3),
        ],
        ids=["invert", "invert-singular", "invert-bad-k", "block", "block-out-of-range",
             "verify-bad-k"],
    )
    def test_no_unclosed_file(self, capsys, tmp_path, argv, want):
        src = tmp_path / "a.brim"
        a = shifted(6, 105)
        if want == 2:
            a[2:4, 2:4] = 0.0
        write_matrix(src, a)
        argv = [arg.format(out=tmp_path / "x.brim") for arg in argv] + ["--in", str(src)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = run(capsys, *argv)[0]
            gc.collect()
        assert code == want
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
