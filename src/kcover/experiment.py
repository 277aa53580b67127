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
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .core import STREAM_SWEEP, STREAM_UNIFORM_SAMPLE, Dataset, rng_stream, uniform_rows
from .covering import HashCoveringConfig, build_covering_hash
from .sampling import SampleCoveringConfig, build_covering_sample
from .solver import evaluate_on_full, gonzalez

DEFAULT_BUDGET_MULTIPLIERS = (1, 2, 4, 8, 16, 30)

# _cell_seed seeds each sweep cell from the method's id here; an id is never
# reused, so a deleted method leaves every other method's output as it was
_METHOD_IDS = {"benchmark": 0, "hash": 1, "sample": 3, "uniform": 4}
# the methods that build a coreset; all but sample need a budget
CORESET_METHODS = tuple(m for m in _METHOD_IDS if m != "benchmark")


@dataclass(frozen=True)
class ExperimentReport:
    dataset_name: str
    n: int
    d: int
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


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


# (emitted column name, attribute) in emission order
REPORT_COLUMNS = tuple((_camel(f.name), f.name) for f in fields(ExperimentReport))

TIMING_COLUMNS = frozenset({"buildSeconds", "solveSeconds", "totalSeconds"})


def default_budgets(k: int, n: int) -> tuple[int, ...]:
    grid = sorted({min(m * k, n) for m in DEFAULT_BUDGET_MULTIPLIERS})
    return tuple(grid)


def build_coreset(method: str, dataset: Dataset, k: int, budget: int | None, seed: int):
    """Build a coreset of the dataset with one of CORESET_METHODS.

    Returns (sorted row subset, its CoveringResult), or (subset, None) for
    the uniform sample, which certifies no radius. The sample method takes
    no budget; the others raise ValueError without one of at least 1. A
    budget above n is taken as n, as run_sweep takes it.
    """
    if method not in CORESET_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "sample" and (budget is None or budget < 1):
        raise ValueError(f"the {method} method needs a budget of at least 1")
    if budget is not None:
        budget = min(budget, dataset.n)
    if method == "uniform":
        return uniform_rows(dataset.n, budget, seed, STREAM_UNIFORM_SAMPLE), None
    if method == "sample":
        result = build_covering_sample(dataset, SampleCoveringConfig(k=k, seed=seed))
    else:
        result = build_covering_hash(dataset, HashCoveringConfig(k=k, budget=budget, seed=seed))
    return result.subset, result


def _cell_seed(seed: int, method: str, budget: int, trial: int) -> int:
    rng = rng_stream(seed, STREAM_SWEEP, _METHOD_IDS[method], budget, trial)
    return int(rng.integers(0, 2**63))


def _ratio(value: float, benchmark: float) -> float:
    if benchmark == 0.0:
        return 1.0 if value == 0.0 else math.inf
    return value / benchmark


def run_sweep(dataset: Dataset, k: int | None = None, methods=("hash", "uniform"),
              budgets=None, trials: int = 3, seed: int = 0,
              dataset_name: str = "dataset") -> list[ExperimentReport]:
    """Run the grid and return reports sorted by (method, budget, trial).

    Every cell builds (no construction fails), solves and evaluates on the
    dataset's own rows, so each row's cost_on_full is the k-center cost of
    its centers on the input.
    """
    methods = tuple(dict.fromkeys(methods))
    if not methods:
        raise ValueError("methods must be nonempty")
    for m in methods:
        if m not in _METHOD_IDS:
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

    # the fields every row shares; each row fills in the rest
    base = ExperimentReport(
        dataset_name=dataset_name, n=n, d=dataset.d, k=k,
        method="benchmark", budget_requested=n, coreset_size_actual=0,
        build_seconds=0.0, solve_seconds=0.0, total_seconds=0.0,
        cost_on_full=math.nan, cost_ratio_vs_benchmark=math.nan, seed=seed, trial=0)
    rows: list[ExperimentReport] = []
    bench = gonzalez(dataset, k, start_index=0)
    if "benchmark" in methods:
        rows += [replace(base, coreset_size_actual=n, solve_seconds=bench.solve_seconds,
                         total_seconds=bench.solve_seconds,
                         cost_on_full=bench.cost_on_solve_set, cost_ratio_vs_benchmark=1.0,
                         trial=trial)
                 for trial in range(trials)]
    for method in methods:
        if method == "benchmark":
            continue
        for budget in budgets:
            for trial in range(trials):
                cell = replace(base, method=method, budget_requested=budget, trial=trial)
                rows.append(_run_cell(dataset, cell, bench.cost_on_solve_set))

    rows.sort(key=lambda r: (r.method, r.budget_requested, r.trial))
    return rows


def _run_cell(dataset: Dataset, cell: ExperimentReport, benchmark_cost: float) -> ExperimentReport:
    """Fill in one cell's row: build, solve on the coreset, evaluate on dataset."""
    cell_seed = _cell_seed(cell.seed, cell.method, cell.budget_requested, cell.trial)
    t0 = time.perf_counter()
    subset, _ = build_coreset(cell.method, dataset, cell.k, cell.budget_requested, cell_seed)
    build_seconds = time.perf_counter() - t0

    sol = gonzalez(dataset.take(subset), cell.k, start_index=0)
    value = evaluate_on_full(dataset, subset, sol)
    total_seconds = time.perf_counter() - t0
    return replace(cell, coreset_size_actual=int(subset.shape[0]),
                   build_seconds=build_seconds, solve_seconds=sol.solve_seconds,
                   total_seconds=total_seconds, cost_on_full=value,
                   cost_ratio_vs_benchmark=_ratio(value, benchmark_cost))


def emit_report(reports, fmt: str = "csv", path=None) -> str:
    """Serialize reports; returns the text and optionally writes it to path.

    CSV uses the canonical column order; JSON is an array of objects with
    the same field names. Rows keep their given order, so emitting a sweep's
    output is deterministic byte-for-byte apart from the timing columns.
    JSON has no NaN or infinity, so a non-finite value (a ratio over a zero
    benchmark cost) is written as null there.
    """
    header = [col for col, _ in REPORT_COLUMNS]
    rows = [[getattr(r, attr) for _, attr in REPORT_COLUMNS] for r in reports]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "json":
        records = [{col: None if isinstance(v, float) and not math.isfinite(v) else v
                    for col, v in zip(header, row)} for row in rows]
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError("fmt must be 'csv' or 'json'")
    if path is not None:
        Path(path).write_text(text)
    return text
