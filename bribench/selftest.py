"""Smoke run of the benchmark at tiny sizes.

    python3 bribench/selftest.py

For each workload it runs ``run.py --tiny`` for one second, untraced and
traced, and checks that
  * the last line carries exactly the metrics BENCHMARK.json names, each
    with its unit, and the human-readable lines name all nine end-to-end
    metrics;
  * the correctness gate ran: every op passed its checks, and the same
    ops fail them once the oracle is perturbed;
  * the span tree closed on every traced op (run.py counts an op whose
    tree does not close as failed, so ``failed`` stays 0);
and that run.py exits non-zero, printing no result, where the package
source is missing. Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

USER_METRICS = ("block_p50_s", "block_tail_s", "full_s", "blocks_per_s", "setup_s",
                 "peak_blocks", "peak_rss_mb", "max_rel_err", "failed_frac")


def bench_run(name: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_result(name: str, trace: int, spec: dict) -> None:
    result, out = bench_run(name, trace)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {key: value["unit"] for key, value in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{name} trace={trace}: result keys {sorted(result)}")
    if got != declared:
        raise SystemExit(f"{name} trace={trace}: metrics {got} differ from BENCHMARK.json {declared}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise SystemExit(f"{name} trace={trace}: not correct: {result}\n{out}")
    if not trace:
        missing = [m for m in USER_METRICS if f"\n{m} = " not in out]
        if missing:
            raise SystemExit(f"{name}: human-readable lines miss {missing}")
    print(f"ok {name} trace={trace}: {result['attempted']} ops")


def check_gate(name: str) -> None:
    """The same ops fail once the oracle is off by 1e-4 of its largest entry."""
    w = workloads.TINY[name]
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        ctx = run.Context.build(w, 7, Path(tmp))
        try:
            ctx.oracle = ctx.oracle + 1e-4 * ctx.scale
            loop = run.closed_loop(ctx, 0.0, run.plain)
        finally:
            ctx.close()
    if loop.failed != loop.attempted or not loop.failures[0].count("relative error"):
        raise SystemExit(f"{name}: a perturbed oracle did not fail the gate: {loop.failures}")
    print(f"ok {name}: the gate rejects a wrong answer")


def check_bare_directory() -> None:
    """Without the package source, run.py must fail and print no result."""
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "block-mem-deep",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=170)
    if done.returncode == 0 or done.stdout.strip():
        raise SystemExit(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print("ok bare directory: exits non-zero without a result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in spec["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        raise SystemExit(f"BENCHMARK.json names workloads run.py lacks: {sorted(unknown)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(name, trace, spec)
        check_gate(name)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
