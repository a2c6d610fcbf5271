"""Command-line front end: generate, invert, extract, verify, benchmark.

Subcommands operate on BRIM matrix files and print a short human summary
(or a single JSON object with --json). Exit codes are a stable contract
for scripting: 0 success, 1 verification failure, 2 singular pivot or
singular matrix, 3 usage or input/output error. A library error exits with
the ``exit_code`` its type carries.

Generation is deterministic: matrices come from NumPy's default PCG64
generator seeded with --seed, so the same flags regenerate byte-identical
files on any platform.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from statistics import median

import numpy as np

from .baseline import lu_invert_full
from .core import Workspace
from .engine import invert_block, invert_full
from .errors import BriError, MaterializeLimitError, UsageError
from .formats import BrimReader, BrimSink, MemorySink, read_matrix, write_matrix
from .providers import KernelSpec, kernel_matrix, make_file_provider, make_memory_provider

__all__ = ["main"]

# The largest input order `bri verify` accepts: it holds the dense LU inverse
# and the candidate at once, and the input only while LU inverts it. Traced
# peaks at m=512, in m*m*8 bytes: 2.14 with --inverse, 2.30 when the k=4
# block runs recompute it.
MATERIALIZE_LIMIT = 4096

# One `bri bench` CSV row per run, in this column order.
_BENCH_COLUMNS = ("method", "m", "k", "wall_ms", "peak_bytes", "n_block_inv", "n_block_mul", "seed")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 3."""

    def error(self, message):
        raise UsageError(message)


def _k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}, expected e.g. 2,4,8")
    if not ks:
        raise argparse.ArgumentTypeError("empty k list")
    return ks


def _seed(text: str) -> int:
    """A PCG64 seed: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}, expected an integer >= 0")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _tol(text: str) -> float:
    """A relative error bound: finite and non-negative."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}, expected a number >= 0")
    if not (tol >= 0 and np.isfinite(tol)):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bri",
        description="Single-block and full matrix inversion over k-by-k block partitions.",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 singular pivot, 3 usage/io error.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="print one JSON object instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a test matrix file")
    gen.add_argument("--kind", required=True, choices=("randn", "spd", "lssvm"))
    gen.add_argument("--m", type=int, help="matrix order (randn, spd)")
    gen.add_argument("--n", type=int, help="training point count (lssvm; order is n+1)")
    gen.add_argument("--seed", type=_seed, default=42, help="PCG64 seed (default 42)")
    gen.add_argument("--sigma", type=float, default=1.0, help="kernel width (lssvm)")
    gen.add_argument("--gamma", type=float, default=1.0, help="ridge weight (lssvm)")
    gen.add_argument("--out", required=True, help="output BRIM file")
    gen.set_defaults(func=cmd_gen)

    inv = sub.add_parser("invert", parents=[common], help="invert a BRIM file")
    inv.add_argument("--in", dest="input", required=True, help="input BRIM file")
    inv.add_argument("--out", required=True, help="output BRIM file")
    inv.add_argument("--k", type=int, help="block partition (required for bri)")
    inv.add_argument("--method", choices=("bri", "lu"), default="bri")
    inv.set_defaults(func=cmd_invert)

    single = sub.add_parser("invert-block", parents=[common], help="one block of the inverse")
    single.add_argument("--in", dest="input", required=True, help="input BRIM file")
    single.add_argument("--k", type=int, required=True, help="block partition")
    single.add_argument("--row", type=int, required=True, help="block row, 1-based")
    single.add_argument("--col", type=int, required=True, help="block column, 1-based")
    single.add_argument("--out", help="optional output BRIM file of order b")
    single.set_defaults(func=cmd_invert_block)

    ver = sub.add_parser("verify", parents=[common], help="check an inverse against dense LU")
    ver.add_argument("--in", dest="input", required=True, help="input BRIM file")
    ver.add_argument("--k", type=int, help="block partition (required without --inverse)")
    ver.add_argument("--inverse", help="claimed inverse to check (default: run the recursion)")
    ver.add_argument("--tol", type=_tol, default=1e-8, help="relative max-norm bound")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", parents=[common], help="timing/memory sweep to CSV")
    bench.add_argument("--m", type=int, required=True, help="matrix order")
    bench.add_argument("--k-list", dest="k_list", type=_k_list, required=True, help="e.g. 2,4,8")
    bench.add_argument("--seed", type=_seed, default=42)
    bench.add_argument("--repeat", type=int, default=3, help="runs per configuration")
    bench.add_argument("--csv", help="output CSV path")
    bench.set_defaults(func=cmd_bench)
    return parser


def _generate(kind: str, order: int, seed: int, sigma: float = 1.0, gamma: float = 1.0) -> np.ndarray:
    # the generator is pinned by name so files regenerate bit-identically
    # across platforms and numpy releases
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "randn":
        # +order on the diagonal keeps oracle tolerances meaningful; raw
        # normal matrices are invertible but can be arbitrarily
        # ill-conditioned
        return rng.standard_normal((order, order)) + order * np.eye(order)
    if kind == "spd":
        g = rng.standard_normal((order, order))
        return g @ g.T + np.eye(order)
    # three-dimensional inputs: one-dimensional point sets give the kernel
    # exponentially decaying cross-block spectra, and the reduction then
    # meets numerically singular pivots
    inputs = rng.standard_normal((order - 1, 3))
    return kernel_matrix(KernelSpec(inputs, gamma=gamma, sigma=sigma))


def _emit(args, info: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(info))
    else:
        for line in lines:
            print(line)


def cmd_gen(args) -> int:
    if args.kind == "lssvm":
        if args.n is None or args.n < 1:
            raise UsageError("gen --kind lssvm needs --n >= 1")
        order = args.n + 1
    else:
        if args.m is None or args.m < 1:
            raise UsageError(f"gen --kind {args.kind} needs --m >= 1")
        order = args.m
    matrix = _generate(args.kind, order, args.seed, args.sigma, args.gamma)
    write_matrix(args.out, matrix)
    info = {"command": "gen", "kind": args.kind, "m": order, "seed": args.seed, "out": args.out}
    _emit(args, info, [f"wrote {args.kind} matrix of order {order} to {args.out}"])
    return 0


def _lu(matrix: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Dense LU inverse, wall ms, and peak bytes: the input plus the working copy."""
    t0 = time.perf_counter()
    inverse = lu_invert_full(matrix)
    return inverse, (time.perf_counter() - t0) * 1e3, 2 * matrix.nbytes


def _bri(provider, sink) -> tuple[Workspace, float, int]:
    """Block-recursive inverse into ``sink``: its workspace, wall ms, and peak bytes."""
    ws = Workspace()
    t0 = time.perf_counter()
    invert_full(provider, sink, ws)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return ws, wall_ms, ws.gauge.peak_blocks * 8 * provider.layout.b**2


def _refuse_out_over_input(args) -> None:
    """UsageError when --out names the --in file, by the same path or a link."""
    if args.out and os.path.exists(args.out) and os.path.samefile(args.out, args.input):
        raise UsageError(f"--out {args.out} is the input file; write the result elsewhere")


def cmd_invert(args) -> int:
    if args.method == "lu":
        matrix = read_matrix(args.input)
        inverse, wall_ms, peak_bytes = _lu(matrix)
        write_matrix(args.out, inverse)
        m = matrix.shape[0]
        info = {
            "command": "invert",
            "method": "lu",
            "m": m,
            "wall_ms": wall_ms,
            "peak_bytes": peak_bytes,
            "out": args.out,
        }
        _emit(
            args,
            info,
            [
                f"inverted order {m} by dense LU in {wall_ms:.3f} ms",
                f"peak {peak_bytes} bytes; wrote {args.out}",
            ],
        )
        return 0
    if args.k is None:
        raise UsageError("invert --method bri needs --k")
    provider = make_file_provider(args.input, args.k)
    lay = provider.layout
    with provider:
        # Refuse before BrimSink truncates --out: the input is read while the
        # output is written, and run_view rejects a layout for every target alike.
        _refuse_out_over_input(args)
        provider.run_view(1, 1)
        with BrimSink(args.out, lay) as sink:
            ws, wall_ms, peak_bytes = _bri(provider, sink)
    c, peak = ws.counters, ws.gauge.peak_blocks
    info = {
        "command": "invert",
        "method": "bri",
        "m": lay.m,
        "k": lay.k,
        "b": lay.b,
        "l": lay.l,
        "wall_ms": wall_ms,
        "peak_blocks": peak,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "peak_bytes": peak_bytes,
        **asdict(c),
        "out": args.out,
    }
    _emit(
        args,
        info,
        [
            f"inverted order {lay.m} with k={lay.k} (b={lay.b}, l={lay.l}) "
            f"in {wall_ms:.3f} ms",
            f"peak {peak} live blocks ({peak_bytes} bytes)",
            f"{c.block_inversions} block inversions, {c.block_multiplications} "
            f"multiplications, {c.schur_nodes} reductions; wrote {args.out}",
        ],
    )
    return 0


def cmd_invert_block(args) -> int:
    provider = make_file_provider(args.input, args.k)
    lay = provider.layout
    ws = Workspace()
    with provider:
        _refuse_out_over_input(args)
        block = invert_block(provider, args.row, args.col, ws)
    data = block.data
    block.release()
    if args.out:
        write_matrix(args.out, data)
    bound = lay.k  # a block run holds exactly k live blocks
    info = {
        "command": "invert-block",
        "row": args.row,
        "col": args.col,
        "b": lay.b,
        "peak_blocks": ws.gauge.peak_blocks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bound": bound,
        "block": data.tolist(),
    }
    lines = [
        f"block ({args.row}, {args.col}) of the inverse, order {lay.b}",
        f"peak {ws.gauge.peak_blocks} live blocks, bound {bound}",
    ]
    if lay.b == 1:
        lines.insert(0, f"value: {data[0, 0]:.12g}")
    elif lay.b <= 16:
        lines.insert(0, np.array2string(data, max_line_width=120, precision=8))
    elif not args.out:
        lines.append("block larger than 16x16; pass --out to save it")
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(args, info, lines)
    return 0


def cmd_verify(args) -> int:
    if not args.inverse and args.k is None:
        raise UsageError("verify without --inverse needs --k")
    with BrimReader(args.input) as reader:
        m = reader.m
    if m > MATERIALIZE_LIMIT:
        raise MaterializeLimitError(m, MATERIALIZE_LIMIT)
    # The input array lives only while LU inverts it.
    if args.inverse:
        with BrimReader(args.inverse) as reader:
            order = reader.m
        if order != m:
            raise UsageError(f"inverse order {order} does not match input order {m}")
        reference = lu_invert_full(read_matrix(args.input))
        candidate = read_matrix(args.inverse)
    else:
        # Blocks come from the file, as in `bri invert`. A --k that no target
        # can run is refused before the dense LU reads the input.
        with make_file_provider(args.input, args.k) as provider:
            provider.run_view(1, 1)
            reference = lu_invert_full(read_matrix(args.input))
            sink = MemorySink(provider.layout)
            invert_full(provider, sink, Workspace())
        candidate = sink.finalize()
    # The gap overwrites the candidate, so the check adds no order-m array.
    gap = np.abs(np.subtract(candidate, reference, out=candidate), out=candidate)
    worst = np.unravel_index(np.argmax(gap), gap.shape)
    rel = float(gap[worst] / np.maximum(reference.max(), -reference.min()))
    ok = rel <= args.tol
    info = {
        "command": "verify",
        "m": m,
        "max_rel_error": rel,
        "at": [int(worst[0]), int(worst[1])],
        "tol": args.tol,
        "pass": ok,
    }
    verdict = "pass" if ok else "FAIL"
    _emit(
        args,
        info,
        [
            f"max relative error {rel:.3e} at entry ({worst[0]}, {worst[1]}): "
            f"{verdict} (tol {args.tol:g})"
        ],
    )
    return 0 if ok else 1


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {args.repeat}")
    if args.m < 2:
        raise UsageError(f"bench needs --m >= 2, got {args.m}")
    matrix = _generate("randn", args.m, args.seed)
    runs = []
    for _ in range(args.repeat):
        for k in args.k_list:
            provider = make_memory_provider(matrix, k)
            ws, wall_ms, peak_bytes = _bri(provider, MemorySink(provider.layout))
            c = ws.counters
            runs.append(
                ("bri", args.m, k, wall_ms, peak_bytes,
                 c.block_inversions, c.block_multiplications, args.seed)
            )
        _, wall_ms, peak_bytes = _lu(matrix)
        runs.append(("lu", args.m, 1, wall_ms, peak_bytes, 1, 0, args.seed))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_BENCH_COLUMNS)
            writer.writerows((*run[:3], f"{run[3]:.3f}", *run[4:]) for run in runs)
    groups: dict[tuple[str, int], list[tuple[float, int]]] = {}
    for method, _, k, wall_ms, peak_bytes, *_ in runs:
        groups.setdefault((method, k), []).append((wall_ms, peak_bytes))
    lines = [f"order {args.m}, {args.repeat} repeats per configuration"]
    rows = []
    for (method, k), timings in sorted(groups.items()):
        wall = median(w for w, _ in timings)
        peak = timings[0][1]
        rows.append({"method": method, "k": k, "median_wall_ms": wall, "peak_bytes": peak})
        label = f"k={k}" if method == "bri" else "dense"
        lines.append(f"{method:>4} {label:>6}: median {wall:10.3f} ms, peak {peak} bytes")
    if args.csv:
        lines.append(f"wrote {len(runs)} rows to {args.csv}")
    info = {"command": "bench", "m": args.m, "repeat": args.repeat, "rows": rows, "csv": args.csv}
    _emit(args, info, lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BriError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
