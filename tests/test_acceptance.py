"""End-to-end acceptance checks.

Each test prints one verdict line (run with -s or -rA to see them all):

    criterion  N (name): PASS  <measured detail>

Criteria cover oracle equivalence, the k=2 closed form, the scalar 4x4
trace, exact operation counts, the memory bound and trend, the time trend,
padded orders, the kernel system matrix, singular-pivot reporting, and
file round trips.
"""

import statistics
import time

import numpy as np
import pytest

from bri import (
    BrimSink,
    KernelSpec,
    MemorySink,
    Quadrant,
    SingularPivotError,
    Workspace,
    invert_block,
    invert_full,
    kernel_matrix,
    lu_invert_full,
    make_file_provider,
    make_kernel_provider,
    make_memory_provider,
    predicted_counts,
    read_matrix,
    reduce_frame,
    write_matrix,
)
from conftest import full_inverse, replay, rng, shifted


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {tag}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def sweep_192():
    """Three repeats of the m=192 size sweep, shared by criteria 5 and 6."""
    mat = rng(192).standard_normal((192, 192)) + 192 * np.eye(192)
    medians, peaks = {}, {}
    for k in (2, 4, 8):
        walls = []
        for _ in range(3):
            prov = make_memory_provider(mat, k)
            sink = MemorySink(prov.layout)
            ws = Workspace()
            t0 = time.perf_counter()
            invert_full(prov, sink, ws)
            walls.append((time.perf_counter() - t0) * 1e3)
            peaks[k] = ws.gauge.peak_blocks * 8 * prov.layout.b**2
        medians[k] = statistics.median(walls)
    lu_walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        lu_invert_full(mat)
        lu_walls.append((time.perf_counter() - t0) * 1e3)
    return medians, peaks, statistics.median(lu_walls)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 6):
        for m in (6, 8, 12, 16, 24, 48):
            a = rng(seed).standard_normal((m, m)) + m * np.eye(m)
            ref = lu_invert_full(a)
            scale = np.abs(ref).max()
            for k in (2, 3, 4, 6):
                out = full_inverse(a, k)
                worst = max(worst, np.abs(out - ref).max() / scale)
    elapsed = time.perf_counter() - t0
    verdict(
        1, "oracle equivalence", worst <= 1e-8 and elapsed <= 120.0,
        f"worst rel err {worst:.3e} (tol 1e-8), {elapsed:.1f} s (limit 120)",
    )


def test_criterion_02_k2_closed_form():
    worst = 0.0
    for b in (1, 3, 8):
        for trial in range(20):
            a = rng(1000 + trial).standard_normal((2 * b, 2 * b))
            A, B = a[:b, :b], a[:b, b:]
            C, D = a[b:, :b], a[b:, b:]
            d_inv = np.linalg.inv(D)
            s_inv = np.linalg.inv(A - B @ d_inv @ C)
            closed = {
                (1, 1): s_inv,
                (1, 2): -s_inv @ B @ d_inv,
                (2, 1): -d_inv @ C @ s_inv,
                (2, 2): d_inv + d_inv @ C @ s_inv @ B @ d_inv,
            }
            prov = make_memory_provider(a, 2)
            for (alpha, beta), want in closed.items():
                got = invert_block(prov, alpha, beta, Workspace())
                err = np.abs(got.data - want).max() / max(1.0, np.abs(want).max())
                got.release()
                worst = max(worst, err)
    verdict(2, "k=2 closed form", worst <= 1e-9, f"worst rel err {worst:.3e} (tol 1e-9)")


def test_criterion_03_4x4_trace():
    A, B, C, D = Quadrant.A, Quadrant.B, Quadrant.C, Quadrant.D
    a = shifted(4, 7)
    m = {(i, j): a[i - 1, j - 1] for i in range(1, 5) for j in range(1, 5)}
    want = {}
    want[(A, B, A)] = m[1, 3] - m[1, 2] / m[2, 2] * m[2, 3]
    want[(A, B, B)] = m[1, 4] - m[1, 2] / m[2, 2] * m[2, 4]
    want[(A, B, C)] = m[3, 3] - m[3, 2] / m[2, 2] * m[2, 3]
    want[(A, B, D)] = m[3, 4] - m[3, 2] / m[2, 2] * m[2, 4]
    want[(A, B)] = want[(A, B, B)] - want[(A, B, A)] / want[(A, B, C)] * want[(A, B, D)]

    # each branch value replayed on the (1, 1) run's view
    prov = make_memory_provider(a, 4)
    view, _ = prov.run_view(1, 1)
    ws = Workspace()
    worst = 0.0
    for path, value in want.items():
        blk = reduce_frame(view, replay(4, path), ws)
        worst = max(worst, abs(blk.data[0, 0] - value))
        blk.release()
    out = invert_block(prov, 1, 1, ws)
    root_err = abs(out.data[0, 0] - np.linalg.inv(a)[0, 0])
    out.release()
    verdict(
        3, "4x4 worked example", worst <= 1e-12 and root_err <= 1e-12,
        f"worst branch err {worst:.3e}, root err {root_err:.3e} (tol 1e-12)",
    )


def test_criterion_04_operation_counts():
    exact = True
    for k in range(2, 8):
        ws = Workspace()
        out = invert_block(make_memory_provider(shifted(k, 200 + k), k), 1, 1, ws)
        out.release()
        want = predicted_counts(k)
        exact = exact and (
            ws.counters.schur_nodes == want.schur_nodes
            and ws.counters.block_inversions == want.block_inversions
            and ws.counters.block_multiplications == want.block_multiplications
        )
    verdict(4, "operation counts", exact, "k=2..7 integer-exact")


def test_criterion_05_memory_contract(sweep_192):
    ok = True
    for k in range(2, 8):
        for b in (1, 4, 16):
            ws = Workspace()
            prov = make_memory_provider(shifted(k * b, 300 + k * b), k)
            out = invert_block(prov, 1, 1, ws)
            out.release()
            ok = ok and ws.gauge.peak_blocks == k
    _, peaks, _ = sweep_192
    trend = peaks[2] > peaks[4] > peaks[8]
    verdict(
        5, "memory contract", ok and trend,
        "peak exactly k live blocks for k=2..7, b=1,4,16; "
        f"m=192 peak bytes {peaks[2]} > {peaks[4]} > {peaks[8]}",
    )


def test_criterion_06_time_trend(sweep_192):
    medians, _, lu_median = sweep_192
    increasing = medians[2] < medians[4] < medians[8]
    slower_than_lu = medians[8] > lu_median
    verdict(
        6, "time trend", increasing and slower_than_lu,
        f"median ms {medians[2]:.1f} < {medians[4]:.1f} < {medians[8]:.1f}; "
        f"LU {lu_median:.1f} ms",
    )


def test_criterion_07_augmentation():
    worst = 0.0
    for m in (10, 13):
        a = shifted(m, m)
        out = full_inverse(a, 4)
        ref = lu_invert_full(a)
        assert out.shape == (m, m)
        worst = max(worst, np.abs(out - ref).max() / np.abs(ref).max())
    verdict(7, "augmented orders", worst <= 1e-8, f"worst rel err {worst:.3e} (tol 1e-8)")


def test_criterion_08_kernel_system():
    worst = 0.0
    for k in (2, 4):
        spec = KernelSpec(inputs=rng(63).standard_normal((63, 3)), gamma=1.0, sigma=1.0)
        prov = make_kernel_provider(spec, k)
        sink = MemorySink(prov.layout)
        invert_full(prov, sink, Workspace())
        z = sink.finalize()
        residual = np.abs(kernel_matrix(spec) @ z - np.eye(64)).max()
        worst = max(worst, residual)
    verdict(8, "kernel system", worst <= 1e-6, f"worst residual {worst:.3e} (tol 1e-6)")


def test_criterion_09_singular_pivot_report():
    a = shifted(6, 90)
    a[2:4, 2:4] = 0.0
    try:
        invert_block(make_memory_provider(a, 3), 1, 1, Workspace())
        verdict(9, "singular pivot report", False, "no error raised")
    except SingularPivotError as err:
        verdict(
            9, "singular pivot report",
            len(err.path) > 0 and err.pivot_block == (2, 2),
            f"branch {'/'.join(q.name for q in err.path)}, block {err.pivot_block}",
        )


def test_criterion_10_file_round_trip(tmp_path):
    a = shifted(12, 91)
    src = tmp_path / "m.brim"
    write_matrix(src, a)
    copy = tmp_path / "copy.brim"
    write_matrix(copy, read_matrix(src))
    byte_identical = src.read_bytes() == copy.read_bytes()

    from_file = tmp_path / "inv_file.brim"
    prov_f = make_file_provider(src, 3)
    with prov_f, BrimSink(from_file, prov_f.layout) as sink:
        invert_full(prov_f, sink, Workspace())
    from_mem = tmp_path / "inv_mem.brim"
    prov_m = make_memory_provider(a, 3)
    with BrimSink(from_mem, prov_m.layout) as sink:
        invert_full(prov_m, sink, Workspace())
    providers_identical = from_file.read_bytes() == from_mem.read_bytes()
    verdict(
        10, "file round trip", byte_identical and providers_identical,
        "write/read bytes stable; file and memory providers bit-identical",
    )
