"""Coresets for Euclidean k-center built from grid hashing and sampling.

The package provides a covering-based reduction: build a small row subset
within a known radius of every point (via randomly shifted grids or via
sampling rounds), solve k-center on the subset with the greedy 2-approximate
solver, and carry the covering radius as additive slack back to the full
set. An experiment harness compares the pipelines against full-data solving.
"""

from .core import ConstructionFailedError, Dataset, cost
from .covering import (
    CoveringResult,
    HashCoveringConfig,
    build_covering_hash,
    merge_coverings,
    reduce_covering,
    uniform_baseline,
)
from .datasets import CsvFormatError, SyntheticSpec, generate_synthetic, load_csv
from .experiment import ExperimentReport, emit_report, run_sweep
from .neighbor import ExactOracle
from .sampling import SampleCoveringConfig, build_covering_sample
from .solver import CenterSolution, evaluate_on_full, gonzalez

__version__ = "0.1.0"

__all__ = [
    "CenterSolution",
    "ConstructionFailedError",
    "CoveringResult",
    "CsvFormatError",
    "Dataset",
    "ExactOracle",
    "ExperimentReport",
    "HashCoveringConfig",
    "SampleCoveringConfig",
    "SyntheticSpec",
    "build_covering_hash",
    "build_covering_sample",
    "cost",
    "emit_report",
    "evaluate_on_full",
    "generate_synthetic",
    "gonzalez",
    "load_csv",
    "merge_coverings",
    "reduce_covering",
    "run_sweep",
    "uniform_baseline",
]
