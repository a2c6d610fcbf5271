"""The bri benchmark: one workload per run, a closed loop checked against dense LU.

    python3 bribench/run.py --workload block-file-wide --seed 42 --seconds 45 --trace 0

One client in one process issues the next operation only after the
previous one returns. An operation is one ``invert_block`` query on the
``block-*`` workloads and one in-process ``bri invert`` call on
``full-file-wide``. Inputs, the dense LU oracle and a warm-up on a shallow
input are done before timing starts; every operation is checked after it
returns: its block or read-back inverse against the oracle, its operation
counts against ``predicted_counts(k)`` and its gauge peak against 2k + 4.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around every layer boundary, and reports
the per-layer metrics. Human-readable lines (environment, every metric with
its unit, the checks) come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. No BLAS or OpenMP thread variable is set: the program runs
with the threads a user gets, and the values found are printed.

BENCHMARK.json lists the workloads on which no operation fails.
``block-mem-deep`` and ``block-kernel-padded`` (k = 8) run here too, but
some of their targets miss the accuracy gate at most seeds, because the
Schur recursion's error grows with k; they report those misses as failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_RUNS = 9
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not (SRC / "bri" / "__init__.py").is_file():
    sys.exit(f"error: no bri package source at {SRC / 'bri'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bri  # noqa: E402
import bri.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bri.engine import invert_block  # noqa: E402

# name -> unit; --trace 0 reports END_TO_END, --trace 1 PER_LAYER
END_TO_END = {
    "op_p50_s": "s",
    "blocks_per_s": "1/s",
    "setup_s": "s",
    "peak_blocks": "blocks",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "engine.self_s": "s/op",
    "engine.self_us_per_node": "us",
    "engine.schur_nodes": "nodes/op",
    "core.invert_dense.calls": "calls/op",
    "core.invert_dense.s": "s/op",
    "core.multiply.calls": "calls/op",
    "core.multiply.s": "s/op",
    "core.subtract.calls": "calls/op",
    "core.subtract.s": "s/op",
    "core.call_us": "us",
    "core.gflops": "GFLOP/s",
    "providers.fetch.calls": "calls/op",
    "providers.fetch.s": "s/op",
    "providers.fetch.bytes": "B/op",
    "providers.run_view.s": "s/op",
    "formats.read_rect.calls": "calls/op",
    "formats.read_rect.rows": "rows/op",
    "formats.read_rect.bytes": "B/op",
    "formats.read_rect.s": "s/op",
    "formats.sink_put.calls": "calls/op",
    "formats.sink_put.bytes": "B/op",
    "formats.sink_put.s": "s/op",
    "formats.finalize.s": "s/op",
    "cli.self_s": "s/op",
    "baseline.lu_s": "s",
    "trace.overhead": "1",
}


class CheckFailed(Exception):
    """An operation returned, but its output or accounting is wrong."""


def environment() -> dict:
    """Versions, BLAS builds, cores and thread variables, as found."""
    import scipy

    def blas(mod) -> str:
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
    }
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    return env


@dataclass
class Context:
    """One workload's inputs, built before any timing."""

    w: workloads.Workload
    seed: int
    workdir: Path
    path: Path | None = None
    provider: bri.BlockProvider | None = None
    oracle: np.ndarray | None = None  # inverse of the working matrix, padded
    scale: float = 1.0  # max |Z_LU| over the unpadded inverse
    dense: np.ndarray | None = None
    targets: Iterator[tuple[int, int]] | None = None

    @classmethod
    def build(cls, w: workloads.Workload, seed: int, workdir: Path) -> "Context":
        ctx = cls(w, seed, workdir)
        ctx.path = workloads.write_input(w, seed, workdir)
        ctx.provider = workloads.build_provider(w, seed, ctx.path)
        ctx.dense = workloads.dense_input(w, seed)
        z = bri.lu_invert_full(ctx.dense)
        ctx.scale = float(np.abs(z).max())
        ctx.oracle = workloads.padded_inverse(w, z)
        ctx.targets = workloads.targets(w, seed)
        return ctx

    def close(self) -> None:
        source = getattr(self.provider, "source", None)
        if isinstance(getattr(source, "reader", None), bri.BrimReader):
            source.reader.close()


def plain(layer: str, fn, *args):
    """Untraced timing of one operation: (result, wall seconds)."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


@dataclass
class OpResult:
    wall: float
    blocks: int  # inverse blocks delivered
    peak_blocks: int
    rel_err: float
    counters: bri.OpCounters


def _check_counts(ctx: Context, counters: bri.OpCounters, runs: int, peak: int) -> None:
    k = ctx.w.k
    want = bri.predicted_counts(k)
    want = bri.OpCounters(*(runs * getattr(want, f) for f in vars(want)))
    if counters != want:
        raise CheckFailed(f"counters {counters} differ from predicted {want}")
    if peak > 2 * k + 4:
        raise CheckFailed(f"gauge peak {peak} above the 2k+4 = {2 * k + 4} envelope")


def _check_error(ctx: Context, got: np.ndarray, want: np.ndarray) -> float:
    err = float(np.abs(got - want).max()) / ctx.scale
    if not err <= ctx.w.tol:
        raise CheckFailed(f"relative error {err:.3e} above tolerance {ctx.w.tol:g}")
    return err


def block_op(ctx: Context, target: tuple[int, int], timed) -> OpResult:
    """One invert_block query, then its checks against the oracle."""
    alpha, beta = target
    ws = bri.Workspace()
    blk, wall = timed("engine", invert_block, ctx.provider, alpha, beta, ws)
    data = blk.data
    blk.release()
    peak = ws.gauge.peak_blocks
    _check_counts(ctx, ws.counters, 1, peak)
    if ws.gauge.live_blocks:
        raise CheckFailed(f"{ws.gauge.live_blocks} block buffers still live after the query")
    b = ctx.w.b
    r0, c0 = (alpha - 1) * b, (beta - 1) * b
    err = _check_error(ctx, data, ctx.oracle[r0 : r0 + b, c0 : c0 + b])
    return OpResult(wall, 1, peak, err, ws.counters)


def full_op(ctx: Context, target, timed) -> OpResult:
    """One in-process `bri invert --json`, then the inverse read back and checked."""
    out = ctx.workdir / "inverse.brim"
    argv = ["invert", "--in", str(ctx.path), "--out", str(out), "--k", str(ctx.w.k), "--json"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code, wall = timed("cli", bri.cli.main, argv)
    if code != 0:
        raise CheckFailed(f"bri invert exited with {code}")
    info = json.loads(buf.getvalue())
    counters = bri.OpCounters(
        info["block_inversions"], info["block_multiplications"],
        info["block_subtractions"], info["schur_nodes"],
    )
    runs = ctx.w.k**2
    _check_counts(ctx, counters, runs, info["peak_blocks"])
    m = ctx.w.order
    err = _check_error(ctx, bri.read_matrix(out), ctx.oracle[:m, :m])
    return OpResult(wall, runs, info["peak_blocks"], err, counters)


OPS = {"block": block_op, "full": full_op}


@dataclass
class Loop:
    """Outcome of one closed loop of operations."""

    results: list[OpResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def closed_loop(ctx: Context, seconds: float, timed, after=None) -> Loop:
    """Issue operations back to back until ``seconds`` of loop time have passed.

    Targets continue the context's seeded sequence; ``after(result)`` runs
    outside the timing of each successful op. Failing ops are counted,
    never retried.
    """
    op = OPS[ctx.w.op]
    loop = Loop()
    t_end = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < t_end:
        target = next(ctx.targets)
        loop.attempted += 1
        try:
            res = op(ctx, target, timed)
            if after is not None:
                after(res)
        except Exception as e:  # noqa: BLE001 - the loop must record and go on
            loop.failed += 1
            loop.failures.append(f"target {target}: {type(e).__name__}: {e}")
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            continue
        loop.results.append(res)
    return loop


def warm_up(ctx: Context) -> None:
    """Run the op on a shallow input of the same block width, untimed.

    It pays the first-call costs (lazy imports, BLAS start-up, allocator
    growth for b-by-b buffers) without a full-size operation.
    """
    warm = Context.build(ctx.w.warm(), ctx.seed, ctx.workdir)
    try:
        closed_loop(warm, 0.0, plain)
    finally:
        warm.close()


def setup_seconds(ctx: Context, tiny: bool) -> list[float]:
    """`import bri` plus building the provider, each in a fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), ctx.w.name, str(ctx.seed), str(ctx.path or "-")]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def lu_seconds(ctx: Context, repeat: int = 7) -> float:
    """Median dense LU inversion of the same input, after one warm call."""
    bri.lu_invert_full(ctx.dense)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        bri.lu_invert_full(ctx.dense)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, sorted(walls)[rank - 1]


def end_to_end(ctx: Context, loop: Loop, setup: list[float]) -> tuple[dict, list[str]]:
    """The bounded metrics, plus lines naming all nine user-facing metrics with units."""
    res = loop.results
    walls = [r.wall for r in res]
    metrics = {
        "op_p50_s": statistics.median(walls),
        "blocks_per_s": sum(r.blocks for r in res) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_blocks": max(r.peak_blocks for r in res),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(walls)
    t = tail(walls)
    p50, other = ("block_p50_s", "full_s") if ctx.w.op == "block" else ("full_s", "block_p50_s")
    lines = [
        f"{p50} = op_p50_s = {metrics['op_p50_s']:.6f} s (median of {n} ops)",
        f"op wall min/q1/q3/max (s): {min(walls):.6f} "
        + " ".join(f"{q:.6f}" for q in statistics.quantiles(walls, n=4)[::2]) + f" {max(walls):.6f}"
        if n > 1 else f"op wall (s): {walls[0]:.6f}",
        f"{other} = n/a ({'one `bri invert` call' if other == 'full_s' else 'one invert_block query'}"
        " is not this workload's op)",
        f"block_tail_s = {t[1]:.6f} s (p{t[0]:.1f} of {n} ops, {TAIL_BEYOND} beyond)"
        if t
        else f"block_tail_s = n/a ({n} ops; a tail needs more than {TAIL_BEYOND})",
        f"blocks_per_s = {metrics['blocks_per_s']:.6f} 1/s (over the summed op walls)",
        f"setup_s = {metrics['setup_s']:.6f} s (median of {len(setup)} fresh processes)",
        f"peak_blocks = {metrics['peak_blocks']} blocks (envelope 2k+4 = {2 * ctx.w.k + 4})",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MiB",
        f"max_rel_err = {max((r.rel_err for r in res), default=float('nan')):.3e} 1 "
        f"(gate {ctx.w.tol:g}; ops that failed it are counted in failed_frac)",
        f"failed_frac = {loop.failed / loop.attempted:.6f} 1 ({loop.failed} of {loop.attempted})",
    ]
    return metrics, lines


ZERO_WHY = {
    "formats.read_rect": "no BRIM input on this workload",
    "formats.sink_put": "no BRIM sink on this workload",
    "formats.finalize": "no BRIM sink on this workload",
    "cli.self_s": "no CLI call on this workload",
}


def per_layer(ctx: Context, tracer: tracing.Tracer, plain_loop: Loop, traced_loop: Loop,
              lu_s: float) -> tuple[dict, list[str]]:
    """Per-op layer self times and counts from the traced loop."""
    ops = tracer.ops
    layer_self = tracer.layer_self
    c = tracer.counts
    s = tracer.self_s

    def per_op(v: float) -> float:
        return v / ops if ops else 0.0

    nodes = per_op(sum(r.counters.schur_nodes for r in traced_loop.results))
    core_calls = sum(c[f"core.{f}.calls"] for f in ("invert_dense", "multiply", "subtract"))
    core_s = layer_self["core"]
    metrics = {
        "engine.self_s": per_op(layer_self["engine"]),
        "engine.self_us_per_node": 1e6 * per_op(layer_self["engine"]) / nodes if nodes else 0.0,
        "engine.schur_nodes": nodes,
        "core.call_us": 1e6 * core_s / core_calls if core_calls else 0.0,
        "core.gflops": c["core.flops"] / core_s / 1e9 if core_s else 0.0,
        "providers.fetch.bytes": per_op(c["providers.fetch.bytes"]),
        "formats.read_rect.rows": per_op(c["formats.read_rect.rows"]),
        "formats.read_rect.bytes": per_op(c["formats.read_rect.bytes"]),
        "formats.sink_put.bytes": per_op(c["formats.sink_put.bytes"]),
        "cli.self_s": per_op(layer_self["cli"]),
        "baseline.lu_s": lu_s,
        "trace.overhead": (
            statistics.median(r.wall for r in traced_loop.results)
            / statistics.median(r.wall for r in plain_loop.results)
            - 1.0
        ),
    }
    for name in ("core.invert_dense", "core.multiply", "core.subtract", "providers.fetch",
                 "formats.read_rect", "formats.sink_put"):
        metrics[name + ".calls"] = per_op(c[name + ".calls"])
        metrics[name + ".s"] = per_op(s[name])
    metrics["providers.run_view.s"] = per_op(s["providers.run_view"])
    metrics["formats.finalize.s"] = per_op(s["formats.finalize"])
    lines = [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    for prefix, why in ZERO_WHY.items():
        if all(metrics[n] == 0 for n in PER_LAYER if n.startswith(prefix)):
            lines.append(f"{prefix}* = 0: {why}")
    share = {layer: per_op(t) for layer, t in layer_self.items()}
    wall = per_op(sum(layer_self.values()))
    lines.append(
        "self-time split of the traced op wall: "
        + ", ".join(f"{layer} {100 * t / wall:.1f}%" for layer, t in share.items())
    )
    lines.append("span self times (s, whole traced loop): " + json.dumps(
        {name: round(t, 6) for name, t in sorted(s.items())}))
    return metrics, lines


def traced_checks(ctx: Context, tracer: tracing.Tracer, plain_loop: Loop):
    """Per-op checks that the traced counts equal the untraced ones."""
    k, runs = ctx.w.k, (ctx.w.k**2 if ctx.w.op == "full" else 1)
    fetches = 4 ** (k - 1) * runs  # 4 fetches at each of the 4**(k-2) leaves
    untraced = plain_loop.results[0].counters if plain_loop.results else None

    def check(res: OpResult) -> None:
        _, counts = tracer.fold()
        cnt = res.counters
        if untraced is not None and cnt != untraced:
            raise CheckFailed(f"traced counters {cnt} differ from untraced {untraced}")
        want = {
            "core.invert_dense.calls": cnt.block_inversions,
            "core.multiply.calls": cnt.block_multiplications,
            "core.subtract.calls": cnt.block_subtractions,
            "providers.fetch.calls": fetches,
        }
        if ctx.w.source == "file":
            want["formats.read_rect.calls"] = fetches
            want["formats.read_rect.rows"] = fetches * ctx.w.b
        if ctx.w.op == "full":
            want["formats.sink_put.calls"] = runs
        for name, v in want.items():
            if counts.get(name, 0) != v:
                raise CheckFailed(f"traced {name} = {counts.get(name, 0)}, expected {v}")

    return check


def run(args) -> dict:
    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    w = table[args.workload]
    print("env: " + json.dumps(environment()))
    print(f"workload {w.name}: {w.kind} m={w.order} k={w.k} b={w.b} source={w.source} "
          f"op={w.op} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        ctx = Context.build(w, args.seed, Path(tmp))
        try:
            warm_up(ctx)
            if not args.trace:
                setup = setup_seconds(ctx, args.tiny)
                loop = closed_loop(ctx, args.seconds, plain)
                attempted, failed, failures = loop.attempted, loop.failed, loop.failures
                if loop.results:
                    metrics, lines = end_to_end(ctx, loop, setup)
                else:
                    metrics, lines = {}, ["no operation succeeded"]
            else:
                lu_s = lu_seconds(ctx)
                plain_loop = closed_loop(ctx, args.seconds / 2, plain)
                tracer = tracing.Tracer()
                with tracing.patched(tracer):
                    traced_loop = closed_loop(ctx, args.seconds / 2, tracer.run_op,
                                              traced_checks(ctx, tracer, plain_loop))
                attempted = plain_loop.attempted + traced_loop.attempted
                failed = plain_loop.failed + traced_loop.failed
                failures = plain_loop.failures + traced_loop.failures
                if plain_loop.results and traced_loop.results:
                    metrics, lines = per_layer(ctx, tracer, plain_loop, traced_loop, lu_s)
                else:
                    metrics, lines = {}, ["no traced and untraced operation both succeeded"]
        finally:
            ctx.close()
    for line in lines + [f"FAILED {f}" for f in failures]:
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (selftest.py)")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
