"""Experiment sweeps comparing coreset pipelines against full-data solving.

A sweep runs a (method x budget x trial) grid on one dataset. The full
dataset is solved once with the deterministic greedy solver; that cost is
the denominator of every ratio, and each trial's benchmark row reports it.
Rows come back in a canonical (method, budget, trial) order and all
randomness is derived from the master seed and the cell coordinates, so a
sweep is reproducible row-for-row regardless of execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .core import STREAM_SWEEP, ConstructionFailedError, Dataset, rng_stream
from .covering import HashCoveringConfig, build_covering_hash, low_dim_baseline, uniform_baseline
from .dimred import jl_project, jl_target_dim
from .sampling import SampleCoveringConfig, build_covering_sample
from .solver import evaluate_on_full, gonzalez

DEFAULT_BUDGET_MULTIPLIERS = (1, 2, 4, 8, 16, 30)
DEFAULT_JL_EPS = 0.5

_METHODS = ("benchmark", "hash", "lowdim", "sample", "uniform")


@dataclass(frozen=True)
class ExperimentReport:
    dataset_name: str
    n: int
    d: int
    d_prime: int
    k: int
    method: str
    budget_requested: int
    coreset_size_actual: int
    build_seconds: float
    solve_seconds: float
    total_seconds: float
    cost_on_full: float
    cost_ratio_vs_benchmark: float
    seed: int
    trial: int


# (emitted column name, attribute) in emission order
REPORT_COLUMNS = (
    ("datasetName", "dataset_name"),
    ("n", "n"),
    ("d", "d"),
    ("dPrime", "d_prime"),
    ("k", "k"),
    ("method", "method"),
    ("budgetRequested", "budget_requested"),
    ("coresetSizeActual", "coreset_size_actual"),
    ("buildSeconds", "build_seconds"),
    ("solveSeconds", "solve_seconds"),
    ("totalSeconds", "total_seconds"),
    ("costOnFull", "cost_on_full"),
    ("costRatioVsBenchmark", "cost_ratio_vs_benchmark"),
    ("seed", "seed"),
    ("trial", "trial"),
)

TIMING_COLUMNS = frozenset({"buildSeconds", "solveSeconds", "totalSeconds"})


def default_budgets(k: int, n: int) -> tuple[int, ...]:
    grid = sorted({min(m * k, n) for m in DEFAULT_BUDGET_MULTIPLIERS})
    return tuple(grid)


def _cell_seed(seed: int, method: str, budget: int, trial: int) -> int:
    mid = _METHODS.index(method)
    return int(rng_stream(seed, STREAM_SWEEP, mid, budget, trial).integers(0, 2**63))


def _ratio(value: float, benchmark: float) -> float:
    if benchmark == 0.0:
        return 1.0 if value == 0.0 else math.inf
    return value / benchmark


def run_sweep(dataset: Dataset, k: int | None = None, methods=("hash", "uniform"),
              budgets=None, trials: int = 3, seed: int = 0,
              dataset_name: str = "dataset",
              jl_dim: int | None = None) -> list[ExperimentReport]:
    """Run the grid and return reports sorted by (method, budget, trial).

    The working dimension is jl_dim, or jl_target_dim(d, n, DEFAULT_JL_EPS)
    when it is None, and at most d. The projection to it happens once,
    before any timer starts; the full-data benchmark solves the projected
    data too, so build and solve timings compare like for like.
    """
    methods = tuple(dict.fromkeys(methods))
    if not methods:
        raise ValueError("methods must be nonempty")
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = dataset.n
    if k is None:
        k = max(1, math.isqrt(n))
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    if budgets is None:
        budgets = default_budgets(k, n)
    budgets = [int(b) for b in budgets]
    if not budgets or min(budgets) < 1:
        raise ValueError("budgets must be positive")
    budgets = tuple(sorted({min(b, n) for b in budgets}))

    d_prime = jl_dim if jl_dim is not None else jl_target_dim(dataset.d, n, DEFAULT_JL_EPS)
    d_prime = min(d_prime, dataset.d)
    work = jl_project(dataset, d_prime, seed) if d_prime < dataset.d else dataset

    rows: list[ExperimentReport] = []
    bench = gonzalez(work, k, start_index=0)
    bench_cost = bench.cost_on_solve_set
    bench_time = bench.solve_seconds
    if "benchmark" in methods:
        for trial in range(trials):
            rows.append(ExperimentReport(
                dataset_name=dataset_name, n=n, d=dataset.d, d_prime=d_prime, k=k,
                method="benchmark", budget_requested=n, coreset_size_actual=n,
                build_seconds=0.0, solve_seconds=bench_time,
                total_seconds=bench_time, cost_on_full=bench_cost,
                cost_ratio_vs_benchmark=1.0, seed=seed, trial=trial))

    for method in methods:
        if method == "benchmark":
            continue
        for budget in budgets:
            for trial in range(trials):
                rows.append(_run_cell(work, dataset, d_prime, k, method, budget,
                                      trial, seed, dataset_name, bench_cost))

    rows.sort(key=lambda r: (r.method, r.budget_requested, r.trial))
    return rows


def _run_cell(work: Dataset, original: Dataset, d_prime: int, k: int, method: str,
              budget: int, trial: int, seed: int, dataset_name: str,
              benchmark_cost: float) -> ExperimentReport:
    cell_seed = _cell_seed(seed, method, budget, trial)
    t0 = time.perf_counter()
    failed = False
    try:
        if method == "hash":
            cfg = HashCoveringConfig(k=k, budget=budget, seed=cell_seed)
            subset = build_covering_hash(work, cfg).subset
        elif method == "lowdim":
            cfg = HashCoveringConfig(k=k, budget=budget, seed=cell_seed)
            subset = low_dim_baseline(work, cfg).subset
        elif method == "uniform":
            subset = uniform_baseline(work, budget, cell_seed)
        elif method == "sample":
            cfg = SampleCoveringConfig(k=k, seed=cell_seed)
            subset = build_covering_sample(work, cfg).subset
        else:  # pragma: no cover - guarded by run_sweep validation
            raise ValueError(f"unknown method {method!r}")
    except ConstructionFailedError:
        failed = True
        subset = None
    build_seconds = time.perf_counter() - t0

    if failed:
        return ExperimentReport(
            dataset_name=dataset_name, n=original.n, d=original.d, d_prime=d_prime,
            k=k, method=method, budget_requested=budget, coreset_size_actual=0,
            build_seconds=build_seconds, solve_seconds=0.0, total_seconds=build_seconds,
            cost_on_full=math.nan, cost_ratio_vs_benchmark=math.nan,
            seed=seed, trial=trial)

    sub_dataset = work.take(subset)
    sol = gonzalez(sub_dataset, k, start_index=0)
    value = evaluate_on_full(work, subset, sol)
    total_seconds = time.perf_counter() - t0
    return ExperimentReport(
        dataset_name=dataset_name, n=original.n, d=original.d, d_prime=d_prime,
        k=k, method=method, budget_requested=budget,
        coreset_size_actual=int(subset.shape[0]), build_seconds=build_seconds,
        solve_seconds=sol.solve_seconds, total_seconds=total_seconds,
        cost_on_full=value, cost_ratio_vs_benchmark=_ratio(value, benchmark_cost),
        seed=seed, trial=trial)


def _cell_text(report: ExperimentReport, attr: str):
    value = getattr(report, attr)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def emit_report(reports, fmt: str = "csv", path=None) -> str:
    """Serialize reports; returns the text and optionally writes it to path.

    CSV uses the canonical column order; JSON is an array of objects with
    the same field names. Rows keep their given order, so emitting a sweep's
    output is deterministic byte-for-byte apart from the timing columns.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([col for col, _ in REPORT_COLUMNS])
        for r in reports:
            writer.writerow([_cell_text(r, attr) for _, attr in REPORT_COLUMNS])
        text = buf.getvalue()
    elif fmt == "json":
        records = []
        for r in reports:
            rec = {}
            for col, attr in REPORT_COLUMNS:
                value = getattr(r, attr)
                rec[col] = float(value) if isinstance(value, float) else value
            records.append(rec)
        text = json.dumps(records, indent=2) + "\n"
    else:
        raise ValueError("fmt must be 'csv' or 'json'")
    if path is not None:
        Path(path).write_text(text)
    return text
