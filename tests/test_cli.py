"""Command-line front end, exercised in process through main()."""

import gc
import json
import warnings

import numpy as np
import pytest

import bri.cli
import bri.errors
from bri import (
    CSV_COLUMNS,
    BriError,
    GaugeUnderflowError,
    SingularBlockError,
    SingularMatrixError,
    SingularPivotError,
    read_bench_csv,
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
        assert info["peak_blocks"] <= 12


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

    def test_order_above_materialize_limit_is_refused_unread(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "a.brim"
        write_matrix(src, shifted(6, 110))

        def unread(path):
            raise AssertionError("verify read the payload of an oversized input")

        monkeypatch.setattr(bri.cli, "MATERIALIZE_LIMIT", 5)
        monkeypatch.setattr(bri.cli, "read_matrix", unread)
        code, _, err = run(capsys, "verify", "--in", str(src), "--k", "2")
        assert code == 3
        assert "order 6" in err


class TestBench:
    def test_csv_row_count_and_schema(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "--m", "16", "--k-list", "2,4",
                           "--repeat", "2", "--csv", str(csv_path))
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        records = read_bench_csv(csv_path)
        assert len(records) == 2 * (2 + 1)  # per repeat: one row per k, one LU row
        assert sum(1 for r in records if r.method == "lu") == 2
        assert {r.k for r in records if r.method == "bri"} == {2, 4}

    def test_medians_reported_per_method(self, capsys):
        code, out, _ = run(capsys, "bench", "--m", "12", "--k-list", "2,3", "--repeat", "1")
        assert code == 0
        assert "k=2" in out and "k=3" in out and "dense" in out

    def test_bad_k_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--m", "12", "--k-list", "2,zebra")
        assert code == 3
        assert "k list" in err

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--m", "12", "--k-list", "2", "--repeat", "1",
                           "--json")
        info = json.loads(out)
        assert code == 0
        methods = [row["method"] for row in info["rows"]]
        assert methods == ["bri", "lu"]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 3


ERROR_TYPES = [
    obj for obj in vars(bri.errors).values() if isinstance(obj, type) and issubclass(obj, BriError)
]


class TestExitCodes:
    @pytest.mark.parametrize("err", ERROR_TYPES, ids=lambda err: err.__name__)
    def test_error_type_carries_its_exit_code(self, err):
        singular = (SingularBlockError, SingularMatrixError, SingularPivotError)
        assert err.exit_code == (2 if err in singular else 3)

    def test_any_library_error_exits_with_its_code(self, capsys, monkeypatch, tmp_path):
        def fail(args):
            raise GaugeUnderflowError("block released twice")

        monkeypatch.setattr(bri.cli, "cmd_gen", fail)
        code, _, err = run(capsys, "gen", "--kind", "randn", "--m", "4",
                           "--out", str(tmp_path / "a.brim"))
        assert code == 3
        assert "released twice" in err


class TestInputFileClosed:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["invert", "--k", "2", "--out", "{out}"], 0),
            (["invert", "--k", "3", "--out", "{out}"], 2),
            (["invert", "--k", "1", "--out", "{out}"], 3),
            (["invert-block", "--k", "2", "--row", "1", "--col", "2"], 0),
            (["invert-block", "--k", "2", "--row", "3", "--col", "1"], 3),
        ],
        ids=["invert", "invert-singular", "invert-bad-k", "block", "block-out-of-range"],
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
