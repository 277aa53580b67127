"""Coresets for Euclidean k-center built from grid hashing and sampling.

The package provides a covering-based reduction: build a small row subset
within a known radius of every point (via randomly shifted grids or via
sampling rounds), solve k-center on the subset with the greedy 2-approximate
solver, and carry the covering radius as additive slack back to the full
set. An experiment harness compares the pipelines against full-data solving.
"""

from .core import (
    ConstructionFailedError,
    Dataset,
    cost,
    dist,
    dist_to_set,
    index_subset,
    rng_stream,
)
from .covering import (
    CoveringResult,
    HashCoveringConfig,
    build_covering_hash,
    low_dim_baseline,
    representatives,
    t_beta_bound,
    uniform_baseline,
)
from .datasets import CsvFormatError, SyntheticSpec, generate_synthetic, load_csv
from .dimred import JlMap, apply_jl, build_jl_map, jl_target_dim
from .experiment import (
    ExperimentReport,
    REPORT_COLUMNS,
    TIMING_COLUMNS,
    emit_report,
    read_report_csv,
    run_sweep,
)
from .gridhash import (
    GridHash,
    count_cells_intersecting_ball,
    eval_hash,
    eval_hash_batch,
    sample_hash,
    zero_shift_hash,
)
from .neighbor import ExactOracle, build_oracle
from .sampling import (
    SampleCoveringConfig,
    build_covering_sample,
    run_sampling_rounds,
    sample_with_replacement,
)
from .solver import (
    CenterSolution,
    evaluate_on_full,
    gonzalez,
    merge_coverings,
    reduce_covering,
)

__version__ = "0.1.0"

__all__ = [
    "CenterSolution",
    "ConstructionFailedError",
    "CoveringResult",
    "CsvFormatError",
    "Dataset",
    "ExactOracle",
    "ExperimentReport",
    "GridHash",
    "HashCoveringConfig",
    "JlMap",
    "REPORT_COLUMNS",
    "SampleCoveringConfig",
    "SyntheticSpec",
    "TIMING_COLUMNS",
    "apply_jl",
    "build_covering_hash",
    "build_covering_sample",
    "build_jl_map",
    "build_oracle",
    "cost",
    "count_cells_intersecting_ball",
    "dist",
    "dist_to_set",
    "emit_report",
    "eval_hash",
    "eval_hash_batch",
    "evaluate_on_full",
    "generate_synthetic",
    "gonzalez",
    "index_subset",
    "jl_target_dim",
    "load_csv",
    "low_dim_baseline",
    "merge_coverings",
    "read_report_csv",
    "reduce_covering",
    "representatives",
    "rng_stream",
    "run_sampling_rounds",
    "run_sweep",
    "sample_hash",
    "sample_with_replacement",
    "t_beta_bound",
    "uniform_baseline",
    "zero_shift_hash",
]
