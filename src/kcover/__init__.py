"""Coresets for Euclidean k-center built from grid hashing and sampling.

Build a small row subset within a known radius of every point (randomly
shifted grids or sampling rounds), solve k-center on it with the greedy
2-approximate solver, and carry the covering radius back as additive slack.
Its 18 names: Dataset, SyntheticSpec, generate_synthetic, load_csv,
CsvFormatError, HashCoveringConfig, build_covering_hash, SampleCoveringConfig,
build_covering_sample, CoveringResult, merge_coverings, reduce_covering,
ConstructionFailedError, ExactOracle, gonzalez, CenterSolution,
evaluate_on_full and cost. The sweep harness (run_sweep, ExperimentReport,
emit_report) is kcover.experiment; uniform_baseline is in kcover.covering.
"""

from .core import ConstructionFailedError, Dataset, cost
from .covering import (
    CoveringResult,
    HashCoveringConfig,
    build_covering_hash,
    merge_coverings,
    reduce_covering,
)
from .datasets import CsvFormatError, SyntheticSpec, generate_synthetic, load_csv
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
    "HashCoveringConfig",
    "SampleCoveringConfig",
    "SyntheticSpec",
    "build_covering_hash",
    "build_covering_sample",
    "cost",
    "evaluate_on_full",
    "generate_synthetic",
    "gonzalez",
    "load_csv",
    "merge_coverings",
    "reduce_covering",
]
