"""Every public name of ``bri`` has a caller outside the tests.

A name counts as used where it appears as a Python name token (strings,
comments and docstrings do not count) in the package's own modules, other
than ``__init__.py``, or in the benchmark under ``bribench/``. The name's
own ``def``, ``class`` or module-level assignment is not a use.
"""

import tokenize
import types
from pathlib import Path

import bri

_ROOT = Path(__file__).resolve().parents[1]
_FILES = [
    p for p in sorted((_ROOT / "src" / "bri").glob("*.py")) if p.name != "__init__.py"
] + sorted((_ROOT / "bribench").glob("*.py"))


def _name_uses() -> dict[str, int]:
    uses: dict[str, int] = {}
    for path in _FILES:
        with tokenize.open(path) as fh:
            toks = [
                t for t in tokenize.generate_tokens(fh.readline)
                if t.type in (tokenize.NAME, tokenize.OP)
            ]
        for prev, tok, nxt in zip([None] + toks, toks, toks[1:] + [None]):
            if tok.type != tokenize.NAME:
                continue
            defines = (prev is not None and prev.string in ("def", "class")) or (
                tok.start[1] == 0 and nxt is not None and nxt.string in ("=", ":")
            )
            if not defines:
                uses[tok.string] = uses.get(tok.string, 0) + 1
    return uses


def test_every_public_name_has_a_caller():
    public = [
        name for name in dir(bri)
        if not name.startswith("_") and not isinstance(getattr(bri, name), types.ModuleType)
    ]
    uses = _name_uses()
    unused = [name for name in public if uses.get(name, 0) == 0]
    assert public and not unused, f"public names with no caller outside the tests: {unused}"
