import math

import numpy as np
import pytest

from kcover import covering
from kcover.core import Dataset, column_extents, first_occurrences
from kcover.covering import (
    HashCoveringConfig,
    build_covering_hash,
    eval_hash_batch,
    sample_hash,
)
from kcover.datasets import SyntheticSpec, generate_synthetic
from kcover.solver import evaluate_on_full, gonzalez

from conftest import covering_ok, t_beta_bound


def four_cluster_instance(n=40, d=2, spread=1.0, separation=100.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = separation * np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)[:, :d]
    labels = np.arange(n) % 4
    pts = centers[labels] + rng.uniform(-spread / 2, spread / 2, size=(n, d))
    return Dataset(pts)


def test_t_beta_bound_shape():
    assert t_beta_bound(1, 100.0, constants=(0.1, 1.0, 2.76)) == 1.0  # clamped below
    assert t_beta_bound(4, 2.0) > t_beta_bound(2, 2.0)
    assert t_beta_bound(4, 2.0) > t_beta_bound(4, 4.0)
    with pytest.raises(ValueError):
        t_beta_bound(0, 2.0)
    with pytest.raises(ValueError):
        t_beta_bound(2, 0.5)


def test_representatives_single_cell():
    cells = np.zeros((4, 2), dtype=np.int64)
    assert first_occurrences(cells)[1].tolist() == [0]


def test_representatives_all_distinct():
    cells = np.arange(5, dtype=np.int64).reshape(-1, 1)
    assert first_occurrences(cells)[1].tolist() == [0, 1, 2, 3, 4]


def test_representatives_first_occurrence():
    cells = np.array([[0], [1], [0], [2], [1]], dtype=np.int64)  # A B A C B
    assert first_occurrences(cells)[1].tolist() == [0, 1, 3]
    # a second column over 2**62 cells does not fit one key beside the rows'
    # first column and index
    cells = np.column_stack([cells[:, 0], cells[:, 0] << 61])
    count, reps = first_occurrences(cells)
    assert count == 3 and reps.tolist() == [0, 1, 3]
    assert first_occurrences(cells, budget=2) == (3, None)


def test_identical_rows_collapse_to_one():
    data = Dataset(np.tile([3.0, -2.0], (25, 1)))
    result = build_covering_hash(data, HashCoveringConfig(k=2, budget=5))
    assert result.size == 1
    assert result.radius_bound == 0.0


def test_planted_clusters_fit_the_budget_within_additive_slack():
    data = four_cluster_instance()
    cfg = HashCoveringConfig(k=4, budget=8, seed=3)
    result = build_covering_hash(data, cfg)
    assert result.size <= 8
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    # the grid hashes at scale tau, so the bound is the cell diameter
    assert result.radius_bound == result.tau_used
    # solving on the subset stays within the additive-slack bound
    opt_ref = gonzalez(data, 4).cost_on_solve_set
    sol = gonzalez(data.take(result.subset), 4)
    full = evaluate_on_full(data, result.subset, sol)
    assert full <= 2.0 * opt_ref + 2.0 * result.radius_bound + 1e-9


def test_occupied_cells_within_t_beta_bound_at_greedy_scale():
    # hash a planted instance at the scale the theory prescribes and compare
    # the occupied-cell count with the reference bound; d=1 keeps the
    # bound below n so the check has teeth
    spec = SyntheticSpec("gaussian_mixture", n=5000, d=1, k_planted=1,
                         cluster_std=1.0, separation=10.0, seed=2)
    data, _ = generate_synthetic(spec)
    k, beta = 1, 2.0
    tau = gonzalez(data, k).cost_on_solve_set  # >= true cost
    threshold = 200.0 * k * t_beta_bound(1, beta)
    assert threshold < data.n
    over = 0
    for seed in range(100):
        h = sample_hash(1, beta * tau, seed)
        size = first_occurrences(eval_hash_batch(h, data.coords))[0]
        if size > threshold:
            over += 1
    assert over == 0


@pytest.fixture(scope="module")
def mixture_k200():
    """gaussian_mixture, n = 20k, d = 20, k = k_planted = 200, with its full greedy cost."""
    data, _ = generate_synthetic(SyntheticSpec("gaussian_mixture", n=20_000, d=20,
                                               k_planted=200, seed=20))
    return data, gonzalez(data, 200).cost_on_solve_set


@pytest.mark.parametrize("per_center", [
    8,
    pytest.param(4, marks=pytest.mark.xfail(strict=True, reason=(
        "at budget 4*k, 4 of 8 covering seeds cost 5.4-6.7x the full greedy, "
        "within the proven additive slack but past 2x"))),
], ids=["8xk", "4xk"])
def test_quality_holds_at_small_budgets(mixture_k200, per_center):
    # every covering seed keeps the coreset solve within 2x the full greedy's cost
    data, full_cost = mixture_k200
    ratios = []
    for seed in range(8):
        result = build_covering_hash(data, HashCoveringConfig(k=200, budget=per_center * 200,
                                                              seed=seed))
        sol = gonzalez(data.take(result.subset), 200)
        ratios.append(evaluate_on_full(data, result.subset, sol) / full_cost)
    assert max(ratios) <= 2.0, [round(r, 2) for r in ratios]


def test_budget_respected_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(30, 400))
        d = int(rng.integers(1, 5))
        data = Dataset(rng.normal(scale=10.0, size=(n, d)))
        budget = int(rng.integers(1, 40))
        cfg = HashCoveringConfig(k=min(5, budget), budget=budget,
                                 seed=trial)
        result = build_covering_hash(data, cfg)
        assert result.size <= budget
        assert covering_ok(data.coords, result.subset, result.radius_bound)


def test_sweep_bookkeeping_without_filter():
    # n below the filter cutoff: every recorded size is an exact cell count;
    # the search brackets the fitting scale, and its last step, the
    # bisection, is kept exactly when it fits the budget
    data = four_cluster_instance(n=120, seed=9)
    cfg = HashCoveringConfig(k=4, budget=10, seed=11)
    result = build_covering_hash(data, cfg)
    assert len(result.sizes) == result.iterations
    assert result.size <= 10 and result.size in result.sizes
    assert any(s > 10 for s in result.sizes)
    assert (result.sizes[-1] == result.size) == (result.sizes[-1] <= 10)


def test_scale_filter_path_is_consistent():
    # n large enough that hopeless scales are rejected from a subsample;
    # the returned subset is still exact and within budget
    rng = np.random.default_rng(21)
    data = Dataset(rng.normal(scale=50.0, size=(5000, 3)))
    cfg = HashCoveringConfig(k=8, budget=64, seed=2)
    result = build_covering_hash(data, cfg)
    assert result.size <= 64
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert any(s > 64 for s in result.sizes)
    assert (result.sizes[-1] == result.size) == (result.sizes[-1] <= 64)


def test_every_recorded_size_is_an_exact_cell_count(monkeypatch):
    # d = 20 mixture rows, where the subsample passes near the fitting scale
    # span more cells than one key holds beside the row index, so their
    # counts fold over several rounds; each scale's size is the distinct
    # cell count of that scale's last hashed pass, subsample or full
    data, _ = generate_synthetic(SyntheticSpec("gaussian_mixture", n=4000, d=20,
                                               k_planted=10, seed=1))
    passes = []

    def recording(h, points, extents=None):
        cells = eval_hash_batch(h, points, extents)
        if passes and passes[-1][0] is h:
            passes[-1] = (h, cells)
        else:
            passes.append((h, cells))
        return cells

    monkeypatch.setattr(covering, "eval_hash_batch", recording)
    result = build_covering_hash(data, HashCoveringConfig(k=10, budget=100, seed=5))
    exact = [np.unique(cells, axis=0).shape[0] for _, cells in passes]
    assert list(result.sizes) == exact
    assert any(s > 100 for s in result.sizes)

    # each column takes at least log2 of its span in bits, so a pass whose
    # box of cells times 2**row_bits exceeds 2**63 has more bits than one
    # key holds beside the row index, and folds over several rounds
    def fits_one_key(cells):
        lo, hi = column_extents(cells)
        box = math.prod(int(b) - int(a) + 1 for a, b in zip(lo, hi))
        return box << (len(cells) - 1).bit_length() <= 2**63

    assert not all(fits_one_key(cells) for _, cells in passes)


@pytest.mark.parametrize("shape", ["lowd", "desk"])
def test_full_passes_pack_into_one_column(shape, monkeypatch):
    # the benchmark's grid workloads at a tenth and a fifth of their n: every
    # pass over all rows numbers each row's cell with one packed int64, so
    # first_occurrences sorts one key column, never the d cell coordinates
    spec, k, budget = {
        "lowd": (SyntheticSpec("uniform_box", n=100_000, d=2, seed=21), 32, 3200),
        "desk": (SyntheticSpec("gaussian_mixture", n=20_000, d=20, k_planted=141,
                               seed=20), 141, 8 * 141),
    }[shape]
    data, _ = generate_synthetic(spec)
    columns = []

    def recording(h, points, extents=None):
        cells = eval_hash_batch(h, points, extents)
        if len(points) == data.n:
            columns.append(cells.shape[1])
        return cells

    monkeypatch.setattr(covering, "eval_hash_batch", recording)
    for seed in (0, 1):
        build_covering_hash(data, HashCoveringConfig(k=k, budget=budget, seed=seed))
    assert len(columns) >= 2 and set(columns) == {1}


def test_config_validation():
    data = Dataset(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        build_covering_hash(data, HashCoveringConfig(k=0))
    with pytest.raises(ValueError):
        build_covering_hash(data, HashCoveringConfig(k=1))
    # "budget", the field's default, is still accepted when passed; any
    # other mode raises
    accepted = build_covering_hash(data, HashCoveringConfig(k=1, mode="budget", budget=2))
    assert accepted.size == 1
    with pytest.raises(ValueError):
        build_covering_hash(data, HashCoveringConfig(k=1, mode="theory", budget=2))


def test_build_deterministic_per_seed():
    data = four_cluster_instance(seed=13)
    cfg = HashCoveringConfig(k=4, budget=12, seed=99)
    a = build_covering_hash(data, cfg)
    b = build_covering_hash(data, cfg)
    assert a.subset.tolist() == b.subset.tolist()
    assert a.radius_bound == b.radius_bound and a.sizes == b.sizes


def test_subset_rows_are_dataset_rows():
    data = four_cluster_instance(n=80, seed=23)
    cfg = HashCoveringConfig(k=4, budget=16, seed=4)
    result = build_covering_hash(data, cfg)
    assert result.subset.min() >= 0 and result.subset.max() < data.n
    assert np.all(np.diff(result.subset) > 0)  # sorted, distinct
