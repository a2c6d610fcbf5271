"""The benchmark tracer patches call sites by name; those names must stay put.

``bribench/tracing.py`` replaces ``vars(owner)[attr]`` for each of its
TARGETS. A name that moves, say onto a base class, would leave the traced
benchmark run unable to patch it; this check fails first. A call that
bypasses a patched name would leave its spans uncounted; the count check
fails then. The full-inversion workload reads counts and the peak from
``bri invert --json``, so every key it reads must stay in that output.
"""

import importlib.util
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import bri.cli
from bri import MemorySink, Workspace, invert_block, invert_full, make_memory_provider, write_matrix
from conftest import shifted

_BENCH = Path(__file__).resolve().parents[1] / "bribench"
_PATH = _BENCH / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bribench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for _, _, owner, attr in tracing.TARGETS],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


# m=8 splits into 4 blocks of 2; m=10 pads to 12 (b=3, l=2).
@pytest.mark.parametrize("m", [8, 10], ids=["unpadded", "padded"])
@pytest.mark.parametrize("op", ["block", "full"])
def test_traced_counts_equal_the_workspace_counters(m, op):
    k = 4
    provider = make_memory_provider(shifted(m, 131), k)
    ws = Workspace()
    if op == "block":
        fn, args, runs = invert_block, (provider, 2, 3, ws), 1
    else:
        fn, args, runs = invert_full, (provider, MemorySink(provider.layout), ws), k * k
    with tracing.patched(tracing.Tracer()) as tracer:
        tracer.run_op("engine", fn, *args)
        _, counts = tracer.fold()
    c = ws.counters
    assert counts["core.invert_dense.calls"] == c.block_inversions
    assert counts["core.multiply.calls"] == c.block_multiplications
    assert counts["core.subtract.calls"] == c.block_subtractions
    # 4 fetches at each of the 4**(k-2) leaves of every run
    assert counts["providers.fetch.calls"] == 4 ** (k - 1) * runs


def test_invert_json_carries_every_key_the_benchmark_reads(tmp_path):
    # The full-inversion workload reads `bri invert --json` output as info["..."].
    keys = set(re.findall(r'info\["(\w+)"\]', (_BENCH / "run.py").read_text()))
    assert {"block_inversions", "peak_blocks"} <= keys
    src = tmp_path / "a.brim"
    write_matrix(src, shifted(8, 131))
    argv = ["invert", "--in", str(src), "--out", str(tmp_path / "x.brim"), "--k", "4", "--json"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert bri.cli.main(argv) == 0
    info = json.loads(buf.getvalue())
    assert sorted(keys - set(info)) == []
