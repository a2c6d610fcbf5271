"""Span tracing around the calls into each bri layer, from outside the package.

Each traced function is replaced, at the name its caller resolves, by a
wrapper that records one span: (name, start, end, parent). The package
source is untouched; ``patched`` restores every original on exit.

Spans of one operation accumulate in flat lists and are folded when the
operation returns, outside its timing: a span's self time is its duration
minus its children's, and a layer's self time is the sum over its spans.
Folding also checks that the span tree closed: one root, every child
inside its parent's interval, and layer self times summing to the root.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import bri
import bri.cli
import bri.engine
import bri.formats
import bri.providers

LAYERS = ("engine", "core", "providers", "formats", "cli")

# (layer, span name, owner, attribute): the owner is the module or class
# whose attribute the caller looks up at call time.
TARGETS = [
    ("engine", "engine.invert_full", bri.cli, "invert_full"),
    ("engine", "engine.invert_block", bri.engine, "invert_block"),
    ("core", "core.invert_dense", bri.engine, "invert_dense"),
    ("core", "core.multiply", bri.engine, "multiply"),
    ("core", "core.subtract", bri.engine, "subtract"),
    ("providers", "providers.fetch", bri.providers.BlockProvider, "fetch_block"),
    ("formats", "formats.read_rect", bri.formats.BrimReader, "read_rect"),
    ("formats", "formats.sink_put", bri.formats.BrimSink, "put"),
    ("formats", "formats.finalize", bri.formats.BrimSink, "finalize"),
] + [
    # run_view is overridden per provider class; wrap every definition
    ("providers", "providers.run_view", cls, "run_view")
    for cls in vars(bri.providers).values()
    if isinstance(cls, type) and issubclass(cls, bri.BlockProvider) and "run_view" in vars(cls)
]


def _flops(name: str, args) -> float:
    """Computed flops of one core call on order-n blocks."""
    n = args[0].order
    if name == "core.invert_dense":
        return 8.0 / 3.0 * n**3  # getrf 2/3 n^3 + getrs on n right-hand sides 2 n^3
    if name == "core.multiply":
        return 2.0 * n**3
    return float(n * n)


def _count(name: str, args, out, counts: dict) -> None:
    """Work counts recorded at the boundary where the work happens."""
    counts[name + ".calls"] += 1
    if name.startswith("core."):
        counts["core.flops"] += _flops(name, args)
    elif name == "providers.fetch":
        counts[name + ".bytes"] += out.data.nbytes
    elif name == "formats.read_rect":
        counts[name + ".rows"] += out.shape[0]
        counts[name + ".bytes"] += out.nbytes
    elif name == "formats.sink_put":
        counts[name + ".bytes"] += np.asarray(getattr(args[3], "data", args[3])).nbytes


class SpanTreeError(RuntimeError):
    """The spans of one operation do not form a closed tree."""


class Tracer:
    """Span recorder for one operation at a time, plus per-run totals."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_names: list[str] = []
        self.layer_of: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)  # totals over folded ops
        self.self_s: dict[str, float] = defaultdict(float)  # per span name
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.ops = 0
        self._clear()

    def _clear(self) -> None:
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.op_counts: dict[str, float] = defaultdict(float)

    def _id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.layer_of)
            self.span_names.append(name)
            self.layer_of.append(layer)
        return self.name_ids[name]

    def wrap(self, layer: str, name: str, fn):
        sid = self._id(name, layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(sid)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(i)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[i] = clock()
                self.stack.pop()
            _count(name, args, out, self.op_counts)
            return out

        traced.__wrapped__ = fn
        return traced

    def run_op(self, layer: str, fn, *args):
        """Call fn(*args) as the root span of one operation; return (result, wall).

        Spans left by an earlier op that failed before ``fold`` are dropped.
        """
        self._clear()
        root = self.wrap(layer, "op." + layer, fn)
        out = root(*args)
        return out, self.ends[0] - self.starts[0]

    def fold(self) -> tuple[dict[str, float], dict[str, float]]:
        """Close the current op: check its span tree and add it to the run totals.

        Returns the op's self time per layer and its work counts.
        """
        if self.stack:
            raise SpanTreeError(f"span tree left {len(self.stack)} spans open")
        n = len(self.names)
        names = np.asarray(self.names)
        parents = np.asarray(self.parents)
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        if n == 0 or parents[0] != -1 or (parents[1:] < 0).any():
            raise SpanTreeError("span tree must have exactly one root, recorded first")
        if (parents[1:] >= np.arange(1, n)).any():
            raise SpanTreeError("a span names a parent recorded after it")
        kid = parents[1:]
        if (starts[1:] < starts[kid]).any() or (ends[1:] > ends[kid]).any():
            raise SpanTreeError("a child span lies outside its parent's interval")
        dur = ends - starts
        self_t = dur - np.bincount(kid, weights=dur[1:], minlength=n)
        per_name = np.bincount(names, weights=self_t, minlength=len(self.layer_of))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for sid, t in enumerate(per_name):
            layer_self[self.layer_of[sid]] += float(t)
            self.self_s[self.span_names[sid]] += float(t)
        wall = float(dur[0])
        if abs(sum(layer_self.values()) - wall) > 1e-9 * max(wall, 1.0) + 1e-12:
            raise SpanTreeError(f"layer self times sum to {sum(layer_self.values())}, op wall is {wall}")
        for layer, t in layer_self.items():
            self.layer_self[layer] += t
        for key, v in self.op_counts.items():
            self.counts[key] += v
        op_counts = dict(self.op_counts)
        self.ops += 1
        self._clear()
        return layer_self, op_counts


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers at every target; restore the originals on exit."""
    saved = []
    try:
        for layer, name, owner, attr in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
