"""The benchmark tracer patches call sites by name; those names must stay put.

``bribench/tracing.py`` replaces ``vars(owner)[attr]`` for each of its
TARGETS. A name that moves, say onto a base class, would leave the traced
benchmark run unable to patch it; this check fails first.
"""

import importlib.util
from pathlib import Path

import pytest

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
