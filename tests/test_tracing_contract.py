"""The benchmark tracer patches call sites by name; those names must stay put.

``bribench/tracing.py`` replaces ``vars(owner)[attr]`` for each of its
TARGETS. A name that moves, say onto a base class, would leave the traced
benchmark run unable to patch it; this check fails first. A call that
bypasses a patched name would leave its spans uncounted; the count check
fails then.
"""

import importlib.util
from pathlib import Path

import pytest

from bri import MemorySink, Workspace, invert_block, invert_full, make_memory_provider
from conftest import shifted

_PATH = Path(__file__).resolve().parents[1] / "bribench" / "tracing.py"
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
