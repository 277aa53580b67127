"""Acceptance gate: eleven desk-scale checks, one test per criterion.

Each test prints a single summary line (visible with `pytest -s`, and in
the failure report otherwise) stating the measured quantity, its bound,
and the elapsed time where the criterion carries a runtime limit.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from kcover.core import Dataset
from kcover.covering import (
    HashCoveringConfig,
    build_covering_hash,
    eval_hash_batch,
    merge_coverings,
    reduce_covering,
    sample_hash,
)
from kcover.datasets import SyntheticSpec, generate_synthetic
from kcover.experiment import REPORT_COLUMNS, TIMING_COLUMNS, emit_report, run_sweep
from kcover.sampling import SampleCoveringConfig, build_covering_sample, run_sampling_rounds
from kcover.solver import evaluate_on_full, gonzalez

from conftest import (
    count_cells_intersecting_ball,
    covering_ok,
    exhaustive_discrete_opt,
    t_beta_bound,
)


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line, flush=True)
    assert ok, line


def mixture(n, d, k, seed, std=0.5, sep=20.0):
    spec = SyntheticSpec("gaussian_mixture", n=n, d=d, k_planted=k,
                         cluster_std=std, separation=sep, seed=seed)
    return generate_synthetic(spec)[0]


def test_c01_cell_diameter_invariant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    per_hash, hashes_per_dim = 51, 125  # 16 * 125 * 51 = 102000 raw pairs
    matched = 0
    worst = 0.0
    for d in range(1, 17):
        for i in range(hashes_per_dim):
            scale = float(10.0 ** rng.uniform(-1.0, 1.0))
            h = sample_hash(d, scale, seed=int(rng.integers(2**31)), stream=i)
            x = rng.uniform(-5.0 * scale, 5.0 * scale, size=(per_hash, d))
            cells = eval_hash_batch(h, x)
            # second point uniform in the first point's cell
            low = h.corner + cells * h.side
            y = low + rng.uniform(0.0, 1.0, size=(per_hash, d)) * h.side
            same = (eval_hash_batch(h, y) == cells).all(axis=1)
            matched += int(same.sum())
            dist = np.sqrt(((x[same] - y[same]) ** 2).sum(axis=1))
            worst = max(worst, float((dist / scale).max()))
    elapsed = time.perf_counter() - t0
    ok = matched >= 100_000 and worst <= 1.0 and elapsed < 5.0
    report("cell diameter", ok,
           f"{matched} same-cell pairs, worst dist/scale {worst:.6f} (<= 1), "
           f"{elapsed:.2f}s (< 5s)")


def test_c02_one_dim_cell_count_mean():
    t0 = time.perf_counter()
    scale, radius, center = 1.0, 0.6, 0.123  # d=1 so side == scale
    counts = [count_cells_intersecting_ball(sample_hash(1, scale, seed=s),
                                            [center], radius)
              for s in range(5000)]
    mean = float(np.mean(counts))
    want = 1.0 + 2.0 * radius / scale
    rel = abs(mean - want) / want
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and elapsed < 5.0
    report("1-d cell count mean", ok,
           f"mean {mean:.4f} vs {want:.4f} (rel {rel:.4f} <= 0.05), "
           f"{elapsed:.2f}s (< 5s)")


def test_c03_covering_soundness_both_constructions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    violations = 0
    for i in range(50):
        n = int(rng.integers(50, 2001))
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 9))
        if i % 3 == 0:
            data = Dataset(rng.normal(scale=3.0, size=(n, d)))
        else:
            data = mixture(n, d, max(1, k // 2 + 1), seed=i)
        if i % 2 == 0:
            cfg = HashCoveringConfig(k=k, budget=int(rng.integers(k, 4 * k + 1)), seed=i)
            cov = build_covering_hash(data, cfg)
        else:
            cov = build_covering_sample(
                data, SampleCoveringConfig(k=k, seed=i))
        if not covering_ok(data.coords, cov.subset, cov.radius_bound):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report("covering soundness", ok,
           f"{violations} violations over 50 instances, {elapsed:.1f}s (< 60s)")


def test_c04_theory_size_bound_at_good_radius():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    beta = 2.0
    exceed = 0
    trials = 500
    for t in range(trials):
        d = 1 + t % 6
        k = 1 + int(rng.integers(0, 5))
        n = int(rng.integers(200, 1201))
        data = mixture(n, d, k, seed=t, std=0.5, sep=25.0)
        tau = gonzalez(data, k).cost_on_solve_set  # >= true optimum
        h = sample_hash(d, beta * tau, seed=t)
        size = np.unique(eval_hash_batch(h, data.coords), axis=0).shape[0]
        if size > 200.0 * k * t_beta_bound(d, beta):
            exceed += 1
    frac = exceed / trials
    elapsed = time.perf_counter() - t0
    ok = frac <= 0.02 and elapsed < 120.0
    report("grid cell-count bound at the optimal radius", ok,
           f"exceed fraction {frac:.4f} (<= 0.02) over {trials} trials, "
           f"{elapsed:.1f}s (< 120s)")


def test_c05_sampling_rounds_terminate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    failures = 0
    trials = 300
    for t in range(trials):
        n = int(rng.integers(300, 2001))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, 9))
        data = mixture(n, d, k, seed=t)
        tau = gonzalez(data, k).cost_on_solve_set
        cfg = SampleCoveringConfig(k=k, sample_constant=3.0, seed=t)
        subset, _ = run_sampling_rounds(data, tau, cfg)
        if subset is None:
            failures += 1
    rate = 1.0 - failures / trials
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.99 and elapsed < 120.0
    report("sampling termination", ok,
           f"terminated {rate:.2%} (>= 99%) of {trials} trials, "
           f"{elapsed:.1f}s (< 120s)")


def test_c06_greedy_two_approximation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    violations = 0
    for t in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        coords = rng.normal(size=(n, d))
        got = gonzalez(Dataset(coords), k,
                       start_index=int(rng.integers(0, n))).cost_on_solve_set
        if got > 2.0 * exhaustive_discrete_opt(coords, k) + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report("greedy 2-approximation", ok,
           f"{violations} violations over 200 instances, {elapsed:.1f}s (< 30s)")


def test_c07_end_to_end_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    violations = 0
    runs = 0
    for t in range(30):
        n = int(rng.integers(300, 1501))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 11))
        data = mixture(n, d, k, seed=t) if t % 2 else Dataset(
            rng.normal(scale=2.0, size=(n, d)))
        opt_ref = gonzalez(data, k).cost_on_solve_set
        if t < 20:
            cfg = HashCoveringConfig(k=k, budget=int(rng.integers(2 * k, 5 * k + 1)),
                                     seed=t)
            cov = build_covering_hash(data, cfg)
        else:
            cov = build_covering_sample(
                data, SampleCoveringConfig(k=k, seed=t))
        sol = gonzalez(data.take(cov.subset), k)
        value = evaluate_on_full(data, cov.subset, sol)
        runs += 1
        if value > 2.0 * opt_ref + 2.0 * cov.radius_bound + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    report("end-to-end bound", ok,
           f"{violations} violations over {runs} pipeline runs, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def desk_sweep():
    t0 = time.perf_counter()
    n, d = 100_000, 20
    k = math.isqrt(n)  # 316
    spec = SyntheticSpec("gaussian_mixture", n=n, d=d, k_planted=k,
                         cluster_std=1.0, separation=10.0, seed=20)
    data, _ = generate_synthetic(spec)
    rows = run_sweep(data, k=k, methods=("benchmark", "hash"),
                     budgets=(8 * k, 30 * k), trials=8, seed=0,
                     dataset_name="desk-scale")
    return rows, k, time.perf_counter() - t0


def test_c08_quality_at_desk_scale(desk_sweep):
    # every covering trial must hold, not one lucky seed
    rows, k, elapsed = desk_sweep
    worst = {b: max(r.cost_ratio_vs_benchmark for r in rows
                    if r.method == "hash" and r.budget_requested == b)
             for b in (8 * k, 30 * k)}
    ok = worst[8 * k] <= 2.0 and worst[30 * k] <= 1.5 and elapsed < 600.0
    report("desk-scale quality", ok,
           f"worst ratio over 8 trials {worst[8 * k]:.3f} at 8k (<= 2.0), "
           f"{worst[30 * k]:.3f} at 30k (<= 1.5), {elapsed:.1f}s (< 600s)")


def test_c09_speedup_at_desk_scale(desk_sweep):
    rows, k, elapsed = desk_sweep
    bench = next(r for r in rows if r.method == "benchmark")
    r8 = next(r for r in rows if r.method == "hash" and r.budget_requested == 8 * k)
    pipeline = r8.total_seconds  # build + coreset solve + full-data eval
    ok = pipeline <= 0.5 * bench.solve_seconds and elapsed < 600.0
    report("desk-scale speedup", ok,
           f"pipeline {pipeline:.3f}s vs 0.5 x benchmark {bench.solve_seconds:.3f}s, "
           f"{elapsed:.1f}s (< 600s)")


def test_c10_merge_and_reduce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    violations = 0
    for t in range(50):  # merge cases
        ka, kb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = mixture(int(rng.integers(100, 601)), 3, ka, seed=2 * t)
        b = mixture(int(rng.integers(100, 601)), 3, kb, seed=2 * t + 1)
        cov_a = build_covering_hash(a, HashCoveringConfig(
            k=ka, budget=int(rng.integers(ka, 3 * ka + 1)), seed=t))
        cov_b = build_covering_hash(b, HashCoveringConfig(
            k=kb, budget=int(rng.integers(kb, 3 * kb + 1)), seed=t + 7))
        merged, cov = merge_coverings(a, cov_a, b, cov_b)
        if cov.radius_bound != max(cov_a.radius_bound, cov_b.radius_bound):
            violations += 1
        elif not covering_ok(merged.coords, cov.subset, cov.radius_bound):
            violations += 1
    for t in range(50):  # reduce cases
        k = int(rng.integers(2, 6))
        data = mixture(int(rng.integers(200, 801)), 3, k, seed=1000 + t)
        outer = build_covering_hash(data, HashCoveringConfig(
            k=k, budget=int(rng.integers(3 * k, 6 * k + 1)), seed=t))

        # the builder's budget is drawn once so the check can rebuild identically
        budget = int(rng.integers(k, 2 * k + 1))
        builder = lambda sub: build_covering_hash(sub, HashCoveringConfig(
            k=k, budget=budget, seed=t + 13))
        reduced = reduce_covering(data, outer, builder)
        inner_direct = builder(data.take(outer.subset))
        want = outer.radius_bound + inner_direct.radius_bound
        if not math.isclose(reduced.radius_bound, want, rel_tol=1e-12):
            violations += 1
        elif not covering_ok(data.coords, reduced.subset, reduced.radius_bound):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report("merge/reduce composition", ok,
           f"{violations} violations over 100 cases, {elapsed:.1f}s (< 30s)")


def test_c11_sweep_determinism():
    t0 = time.perf_counter()
    data = mixture(800, 4, 5, seed=111)

    def run_once():
        rows = run_sweep(data, k=5,
                         methods=("benchmark", "hash", "uniform", "sample"),
                         budgets=(12, 40), trials=2, seed=9,
                         dataset_name="determinism")
        return emit_report(rows, fmt="csv")

    first, second = run_once(), run_once()
    timing_idx = {i for i, (col, _) in enumerate(REPORT_COLUMNS)
                  if col in TIMING_COLUMNS}
    rows_a = list(csv.reader(io.StringIO(first)))
    rows_b = list(csv.reader(io.StringIO(second)))
    mismatches = 0
    assert rows_a[0] == rows_b[0]  # header
    for ra, rb in zip(rows_a, rows_b):
        for i, (ca, cb) in enumerate(zip(ra, rb)):
            if i not in timing_idx and ca != cb:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = len(rows_a) == len(rows_b) and mismatches == 0
    report("sweep determinism", ok,
           f"{mismatches} field mismatches across {len(rows_a) - 1} rows "
           f"(timing columns excluded), {elapsed:.1f}s")
