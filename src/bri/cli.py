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
import json
import sys
from statistics import median

import numpy as np

from .baseline import MATERIALIZE_LIMIT, bench_lu, lu_invert_full
from .core import Workspace
from .engine import invert_block, invert_full
from .errors import BriError, MaterializeLimitError, UsageError
from .formats import BrimSink, MemorySink, read_header, read_matrix, write_bench_csv, write_matrix
from .instrumentation import BenchRecord, gauge_scope
from .providers import KernelSpec, kernel_matrix, make_file_provider, make_memory_provider

__all__ = ["main"]


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
    gen.add_argument("--seed", type=int, default=42, help="PCG64 seed (default 42)")
    gen.add_argument("--sigma", type=float, default=1.0, help="kernel width (lssvm)")
    gen.add_argument("--gamma", type=float, default=1.0, help="ridge weight (lssvm)")
    gen.add_argument("--out", required=True, help="output BRIM file")
    gen.set_defaults(func=cmd_gen)

    inv = sub.add_parser("invert", parents=[common], help="invert a BRIM file")
    inv.add_argument("--in", dest="input", required=True, help="input BRIM file")
    inv.add_argument("--out", required=True, help="output BRIM file")
    inv.add_argument("--k", type=int, help="block partition (required for bri)")
    inv.add_argument("--method", choices=("bri", "lu"), default="bri")
    inv.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="concurrent block runs (bri only; default 1). Measured on 2 cores, jobs > 1 "
        "never paid: wide blocks already keep every core busy in BLAS, and Python's "
        "interpreter lock serializes narrow ones. See the README.",
    )
    inv.add_argument("--seed", type=int, default=42, help="provenance tag for summaries")
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
    ver.add_argument("--k", type=int, required=True, help="block partition")
    ver.add_argument("--inverse", help="claimed inverse to check (default: run the recursion)")
    ver.add_argument("--tol", type=float, default=1e-8, help="relative max-norm bound")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", parents=[common], help="timing/memory sweep to CSV")
    bench.add_argument("--m", type=int, required=True, help="matrix order")
    bench.add_argument("--k-list", dest="k_list", type=_k_list, required=True, help="e.g. 2,4,8")
    bench.add_argument("--kind", choices=("randn", "spd", "lssvm"), default="randn")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--repeat", type=int, default=3, help="runs per configuration")
    bench.add_argument("--sigma", type=float, default=1.0)
    bench.add_argument("--gamma", type=float, default=1.0)
    bench.add_argument("--csv", help="output CSV path")
    bench.set_defaults(func=cmd_bench)
    return parser


def _generate(kind: str, order: int, seed: int, sigma: float, gamma: float) -> np.ndarray:
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


def cmd_invert(args) -> int:
    if args.method == "lu":
        matrix = read_matrix(args.input)
        inverse, record = bench_lu(matrix, args.seed)
        write_matrix(args.out, inverse)
        info = {
            "command": "invert",
            "method": "lu",
            "m": record.m,
            "wall_ms": record.wall_ms,
            "peak_bytes": record.peak_bytes,
            "out": args.out,
        }
        _emit(
            args,
            info,
            [
                f"inverted order {record.m} by dense LU in {record.wall_ms:.3f} ms",
                f"peak {record.peak_bytes} bytes; wrote {args.out}",
            ],
        )
        return 0
    if args.k is None:
        raise UsageError("invert --method bri needs --k")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    provider = make_file_provider(args.input, args.k)
    lay = provider.layout
    with provider, BrimSink(args.out, lay) as sink:
        summary = invert_full(provider, sink, jobs=args.jobs)
    c = summary.counters
    info = {
        "command": "invert",
        "method": "bri",
        "m": lay.m,
        "k": lay.k,
        "b": lay.b,
        "l": lay.l,
        "jobs": summary.jobs,
        "wall_ms": summary.wall_ms,
        "peak_blocks": summary.peak_blocks,
        "peak_bytes": summary.peak_bytes,
        "block_inversions": c.block_inversions,
        "block_multiplications": c.block_multiplications,
        "block_subtractions": c.block_subtractions,
        "schur_nodes": c.schur_nodes,
        "out": args.out,
    }
    _emit(
        args,
        info,
        [
            f"inverted order {lay.m} with k={lay.k} (b={lay.b}, l={lay.l}) "
            f"in {summary.wall_ms:.3f} ms",
            f"peak {summary.peak_blocks} live blocks ({summary.peak_bytes} bytes)",
            f"{c.block_inversions} block inversions, {c.block_multiplications} "
            f"multiplications, {c.schur_nodes} reductions; wrote {args.out}",
        ],
    )
    return 0


def cmd_invert_block(args) -> int:
    provider = make_file_provider(args.input, args.k)
    lay = provider.layout
    ws = Workspace()
    with provider, gauge_scope(ws.gauge) as scope:
        block = invert_block(provider, args.row, args.col, ws)
    data = block.data.copy()
    block.release()
    if args.out:
        write_matrix(args.out, data)
    bound = 2 * lay.k + 4
    info = {
        "command": "invert-block",
        "row": args.row,
        "col": args.col,
        "b": lay.b,
        "peak_blocks": scope.peak_blocks,
        "bound": bound,
        "block": data.tolist(),
    }
    lines = [
        f"block ({args.row}, {args.col}) of the inverse, order {lay.b}",
        f"peak {scope.peak_blocks} live blocks, bound {bound}",
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
    # The check holds the input, its LU inverse and the candidate densely.
    m = read_header(args.input).m
    if m > MATERIALIZE_LIMIT:
        raise MaterializeLimitError(m, MATERIALIZE_LIMIT)
    matrix = read_matrix(args.input)
    reference = lu_invert_full(matrix)
    if args.inverse:
        candidate = read_matrix(args.inverse)
        if candidate.shape != matrix.shape:
            raise UsageError(
                f"inverse order {candidate.shape[0]} does not match input order {matrix.shape[0]}"
            )
    else:
        provider = make_memory_provider(matrix, args.k)
        sink = MemorySink(provider.layout)
        invert_full(provider, sink)
        candidate = sink.finalize()
    gap = np.abs(candidate - reference)
    worst = np.unravel_index(np.argmax(gap), gap.shape)
    rel = float(gap[worst] / np.abs(reference).max())
    ok = rel <= args.tol
    info = {
        "command": "verify",
        "m": matrix.shape[0],
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
    matrix = _generate(args.kind, args.m, args.seed, args.sigma, args.gamma)
    records: list[BenchRecord] = []
    for _ in range(args.repeat):
        for k in args.k_list:
            provider = make_memory_provider(matrix, k)
            sink = MemorySink(provider.layout)
            summary = invert_full(provider, sink)
            c = summary.counters
            records.append(
                BenchRecord(
                    method="bri",
                    m=args.m,
                    k=k,
                    wall_ms=summary.wall_ms,
                    peak_bytes=summary.peak_bytes,
                    n_block_inv=c.block_inversions,
                    n_block_mul=c.block_multiplications,
                    seed=args.seed,
                )
            )
        _, lu_record = bench_lu(matrix, args.seed)
        records.append(lu_record)
    if args.csv:
        write_bench_csv(args.csv, records)
    groups: dict[tuple[str, int], list[BenchRecord]] = {}
    for record in records:
        groups.setdefault((record.method, record.k), []).append(record)
    lines = [f"order {args.m}, {args.repeat} repeats per configuration"]
    rows = []
    for (method, k), recs in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        wall = median(r.wall_ms for r in recs)
        rows.append({"method": method, "k": k, "median_wall_ms": wall, "peak_bytes": recs[0].peak_bytes})
        label = f"k={k}" if method == "bri" else "dense"
        lines.append(f"{method:>4} {label:>6}: median {wall:10.3f} ms, peak {recs[0].peak_bytes} bytes")
    if args.csv:
        lines.append(f"wrote {len(records)} rows to {args.csv}")
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
