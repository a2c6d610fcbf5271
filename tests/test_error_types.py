"""Every error type in ``bri.errors`` is raised somewhere in the package.

An import or an ``except`` clause does not count: the type's name must be
the token right after a ``raise`` in one of the modules under ``src/bri``.
A type that loses its last raise site is dead, even while
``test_public_surface`` still counts its imports as uses.
"""

import tokenize
from pathlib import Path

import bri.errors
from bri import BriError

_SRC = Path(__file__).resolve().parents[1] / "src" / "bri"


def _raised_names() -> set[str]:
    raised = set()
    for path in sorted(_SRC.glob("*.py")):
        with tokenize.open(path) as fh:
            toks = [t for t in tokenize.generate_tokens(fh.readline) if t.type == tokenize.NAME]
        raised.update(tok.string for prev, tok in zip(toks, toks[1:]) if prev.string == "raise")
    return raised


def test_every_error_type_has_a_raise_site():
    types = [
        name for name, obj in vars(bri.errors).items()
        if isinstance(obj, type) and issubclass(obj, BriError) and obj is not BriError
    ]
    raised = _raised_names()
    orphans = [name for name in types if name not in raised]
    assert types and not orphans, f"error types never raised in src/bri: {orphans}"
