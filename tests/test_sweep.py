"""The shared scale sweep behind the hash and sample coverings."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import covering, sampling
from kcover.core import Dataset, first_occurrences
from kcover.datasets import SyntheticSpec, generate_synthetic
from kcover.covering import (
    HashCoveringConfig,
    build_covering_hash,
    eval_hash_batch,
    scale_anchor,
    sweep_scales,
)
from kcover.sampling import SampleCoveringConfig, build_covering_sample
from kcover.solver import evaluate_on_full, gonzalez

from conftest import ascending_scales, bbox_diagonal, covering_ok, exhaustive_discrete_opt


def instances():
    rng = np.random.default_rng(404)
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    clusters = Dataset(centers[np.arange(40) % 4] + rng.normal(size=(40, 2)))
    box = Dataset(np.random.default_rng(405).uniform(-3.0, 5.0, size=(36, 3)))
    return {"clusters": clusters, "box": box}


BUILDS = {
    "hash-budget": lambda data: build_covering_hash(
        data, HashCoveringConfig(k=4, budget=10, seed=7)),
    "sample": lambda data: build_covering_sample(
        data, SampleCoveringConfig(k=2, sample_constant=0.1, seed=7)),
}

# (subset, radius_bound, tau_used, iterations, sizes), recorded when the
# grid moved to the data's frame (coverings changed then on purpose); the
# clusters sample bound is the bounding-box diagonal that caps 4 * tau_used
PINNED = {
    ("clusters", "hash-budget"): (
        [0, 1, 2, 3, 12, 18, 21, 26],
        7.149298685313578, 7.149298685313578, 6, (32, 26, 13, 8, 12, 11)),
    ("clusters", "sample"): (
        [39],
        61.85504971913264, 21.022237007007377, 1, (1,)),
    ("box", "hash-budget"): (
        [0, 1, 2, 3, 4, 6, 7, 11],
        9.271288593676738, 9.271288593676738, 6, (36, 33, 23, 8, 14, 16)),
    ("box", "sample"): (
        [35],
        12.547238069469616, 3.136809517367404, 1, (1,)),
}


@pytest.mark.parametrize("instance,method", sorted(PINNED))
def test_coverings_match_pinned_values(instance, method):
    result = BUILDS[method](instances()[instance])
    got = (result.subset.tolist(), result.radius_bound, result.tau_used,
           result.iterations, result.sizes)
    assert got == PINNED[(instance, method)]


# (size, sha256 of the subset as little-endian int64, radius_bound, tau_used,
# sizes) on 20k normal rows in d = 2 at budget 500: the subsample filter
# runs (2 * 500 + 2048 < 20k rows) and the full pass at 670 cells is
# rejected
FILTERED_BUDGET = 500
FILTERED_PINNED = {
    "hash-budget": (
        500, "6103abdf64caf323661f5a111cdc069762ee3c52949104b6d1a171220eca1eae",
        0.3939279136529291, 0.3939279136529291,
        (3007, 2894, 2529, 1650, 738, 375, 670, 500)),
}


@pytest.mark.parametrize("method", sorted(FILTERED_PINNED))
def test_filtered_sweep_matches_pinned_values(method, monkeypatch):
    data = Dataset(np.random.default_rng(406).normal(size=(20_000, 2)))
    rows_hashed = []

    def counting(h, points, extents=None):
        rows_hashed.append(len(points))
        return eval_hash_batch(h, points, extents)

    monkeypatch.setattr(covering, "eval_hash_batch", counting)
    result = build_covering_hash(data, HashCoveringConfig(k=8, budget=FILTERED_BUDGET, seed=3))
    digest = hashlib.sha256(result.subset.astype("<i8").tobytes()).hexdigest()
    assert (result.size, digest, result.radius_bound, result.tau_used,
            result.sizes) == FILTERED_PINNED[method]
    full_passes = rows_hashed.count(data.n)
    accepted = sum(s <= FILTERED_BUDGET for s in result.sizes)
    assert len(rows_hashed) > full_passes > accepted


@pytest.mark.parametrize("method", ["hash-budget", "sample"])
def test_duplicate_rows_collapse_to_lowest_index(method):
    # three distinct rows, one of them written both as 0.0 and as -0.0
    data = Dataset([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [2.0, 3.0],
                    [0.0, 1.0], [5.0, -1.0], [5.0, -1.0]])
    build = {
        "hash-budget": lambda: build_covering_hash(
            data, HashCoveringConfig(k=3, budget=3, seed=1)),
        "sample": lambda: build_covering_sample(data, SampleCoveringConfig(k=3, seed=1)),
    }[method]
    result = build()
    assert result.subset.tolist() == [0, 1, 5]
    assert result.radius_bound == 0.0 and result.tau_used == 0.0
    assert result.iterations == 1 and result.sizes == (3,)


@pytest.mark.parametrize("build", [build_covering_hash])
def test_budget_below_the_distinct_rows_of_a_zero_cost_instance(build):
    # 3 distinct rows and k = 3: the optimum is 0, but the collapse does not
    # fit the budget of 2, so the search starts from the spread instead
    data = Dataset([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0], [4.0, 3.0]])
    result = build(data, HashCoveringConfig(k=3, budget=2, seed=0))
    assert result.size <= 2 and result.sizes[0] == 3
    assert covering_ok(data.coords, result.subset, result.radius_bound)


def test_sample_failure_carries_sizes(monkeypatch):
    # rounds that never converge: tau doubles until the radius bound 4 tau
    # reaches the diagonal, and row 0 alone covers every row there
    monkeypatch.setattr(sampling, "run_sampling_rounds",
                        lambda dataset, tau, cfg, tau_index=0: (None, 7))
    data = Dataset(np.random.default_rng(2).normal(size=(50, 2)))
    result = build_covering_sample(data, SampleCoveringConfig(k=2, seed=0))
    assert result.subset.tolist() == [0]
    assert result.sizes == (7,) * ascending_scales(data, 2, 0, 4.0)
    assert result.radius_bound == pytest.approx(bbox_diagonal(data), rel=1e-12)
    assert covering_ok(data.coords, result.subset, result.radius_bound)


@st.composite
def tiny_instances(draw):
    """n <= 10 rows in d = 1..3 drawn from a smaller pool, so rows repeat."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 3))
    pool = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        scale=draw(st.sampled_from([1e-3, 1.0, 100.0])), size=(draw(st.integers(1, n)), d))
    rows = draw(st.lists(st.integers(0, pool.shape[0] - 1), min_size=n, max_size=n))
    return pool[rows], draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(tiny_instances())
def test_anchor_is_below_the_optimum(instance):
    coords, k, seed = instance
    opt = exhaustive_discrete_opt(coords, k)
    assert scale_anchor(Dataset(coords), k, seed) <= opt + 1e-12 * (1.0 + opt)


def threshold_step(t_star, calls):
    """A step that fits exactly at the scales tau >= t_star."""
    def step(i, tau):
        calls.append((i, tau))
        return (1, np.array([0])) if tau >= t_star else (2, None)
    return step


def doubling_scales(taus):
    """The leading run of scales that each double the last: the doubling."""
    run = [taus[0]]
    for tau in taus[1:]:
        if tau != 2.0 * run[-1]:
            break
        run.append(tau)
    return run


def assert_stopped_at_diagonal(data, result, taus, radius_factor):
    """Row 0 at the first doubling scale whose radius bound reaches the
    diagonal, with the bound capped there."""
    diagonal = bbox_diagonal(data)
    doubling = doubling_scales(taus)
    assert result.subset.tolist() == [0] and result.tau_used == doubling[-1]
    assert radius_factor * doubling[-1] >= diagonal
    assert len(doubling) == 1 or radius_factor * doubling[-2] < diagonal * (1 + 1e-12)
    assert result.radius_bound == pytest.approx(diagonal, rel=1e-12)


BOX = instances()["box"]


def budget_start(data, k, seed, budget):
    """The budgeted search's first scale: the anchor times min(1, k / budget),
    raised to 2**-61 sqrt(d) spread so that cell indices stay in int64."""
    spread = (data.coords.max(axis=0) - data.coords.min(axis=0)).max()
    floor = 2.0**-61 * math.sqrt(data.d) * spread
    return max(scale_anchor(data, k, seed) * min(1.0, k / budget), floor)


@pytest.mark.parametrize("ratio", [1e-3, 0.3, 1.0, 7.3, 1e3])
def test_budget_sweep_brackets_the_fitting_scale(ratio):
    t_star = ratio * scale_anchor(BOX, 4, 7)
    start = budget_start(BOX, 4, 7, 10)
    calls = []
    result = sweep_scales(BOX, 4, 7, threshold_step(t_star, calls), 1.0, budget=10)
    taus = [tau for _, tau in calls]
    assert min(taus) == taus[0] == start
    if t_star <= start:
        # a first scale that fits is kept
        assert result.tau_used == start and result.iterations == 1
    elif t_star > doubling_scales(taus)[-1]:
        # ratios 7.3 and 1e3 put t_star 1.6x and 222x past BOX's diagonal:
        # the doubling stops at the diagonal with row 0, and no bisection
        # midpoint below it fits
        assert ratio > 1.0
        assert_stopped_at_diagonal(BOX, result, taus, 1.0)
        assert result.iterations == len(doubling_scales(taus)) + covering._BISECTIONS
    else:
        # each bisection step halves the bracket's log-width, from a factor 2
        width = 2.0 ** (0.5**covering._BISECTIONS)
        assert t_star <= result.tau_used <= width * t_star * (1 + 1e-12)
    assert [i for i, _ in calls] == list(range(result.iterations))
    assert len(result.sizes) == result.iterations


@pytest.mark.parametrize("ratio", [1e-3, 1.0, 1.7])
def test_ascending_sweep_never_goes_below_the_anchor(ratio):
    anchor = scale_anchor(BOX, 4, 7)
    calls = []
    result = sweep_scales(BOX, 4, 7, threshold_step(ratio * anchor, calls), 2.0)
    assert min(tau for _, tau in calls) == anchor
    assert result.tau_used == anchor * 2.0 ** max(0, math.ceil(math.log2(ratio)))
    assert result.radius_bound == 2.0 * result.tau_used


@pytest.mark.parametrize("budget_mode", [False, True])
def test_sweep_that_never_fits_reports_every_scale(budget_mode):
    # no step fits: the sweep keeps row 0 at the diagonal, with one sizes
    # entry per stepped scale, the bisection's included
    calls = []
    result = sweep_scales(BOX, 4, 7, threshold_step(math.inf, calls), 2.0,
                          budget=10 if budget_mode else None)
    taus = [tau for _, tau in calls]
    assert result.sizes == (2,) * len(calls)
    assert [i for i, _ in calls] == list(range(len(calls)))
    assert_stopped_at_diagonal(BOX, result, taus, 2.0)
    if budget_mode:
        assert len(calls) == len(doubling_scales(taus)) + covering._BISECTIONS
    else:
        assert len(calls) == ascending_scales(BOX, 4, 7, 2.0) == len(doubling_scales(taus))


def recording_sweep(taus):
    """sweep_scales with every stepped scale appended to taus."""
    def sweep(dataset, k, seed, step, *args, **kwargs):
        def recorded(i, tau):
            taus.append(tau)
            return step(i, tau)
        return sweep_scales(dataset, k, seed, recorded, *args, **kwargs)
    return sweep


@settings(max_examples=100, deadline=None)
@given(tiny_instances())
def test_every_construction_returns_a_sound_covering(instance):
    # tiny instances with repeated rows and d = 1..3; budgets 1, 2, k and n
    # for the grid, and the sample construction once
    coords, k, seed = instance
    data = Dataset(coords)
    k = min(k, data.n)
    diagonal = bbox_diagonal(data)
    builds = [(budget, 1.0, lambda budget=budget: build_covering_hash(
                  data, HashCoveringConfig(k=k, budget=budget, seed=seed)))
              for budget in sorted({1, 2, k, data.n})]
    builds.append((None, 4.0, lambda: build_covering_sample(
        data, SampleCoveringConfig(k=k, seed=seed))))
    for budget, radius_factor, build in builds:
        taus = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(covering, "sweep_scales", recording_sweep(taus))
            patch.setattr(sampling, "sweep_scales", recording_sweep(taus))
            result = build()
        assert covering_ok(data.coords, result.subset, result.radius_bound)
        if budget is not None:
            assert result.size <= budget
        # the doubling stops at its first scale past the diagonal
        past = [tau for tau in (doubling_scales(taus) if taus else [])
                if radius_factor * tau >= diagonal * (1 + 1e-12)]
        assert len(past) <= 1


def edge_instance(name, seed):
    """(data, k) for the edge cases: d = 1, k = n, large coordinate offsets,
    rows so duplicated that the anchor's sample sees at most k distinct ones,
    clusters that straddle the origin, and the sample-exact benchmark shape."""
    rng = np.random.default_rng(seed)
    if name == "centered-d8":
        return Dataset(rng.normal(size=(2000, 8))), 5
    if name.startswith("origin-pair"):
        # two tight clusters, one on the origin: a grid whose cell boundaries
        # always pass through the origin splits the first at every scale. At
        # spreads of 1e-9 and 1e-12 the anchor times k / budget lies below
        # 2**-61 sqrt(d) spread, where the far cluster's cell indices would
        # overflow int64.
        spread = {"origin-pair": 1e-3, "origin-pair-1e-9": 1e-9, "origin-pair-1e-12": 1e-12}
        coords = rng.normal(scale=spread[name], size=(1000, 4))
        coords[500:] += 1e15
        return Dataset(coords), 2
    if name == "planted-10k":
        spec = SyntheticSpec("gaussian_mixture", n=10_000, d=8, k_planted=20, seed=seed)
        return generate_synthetic(spec)[0], 20
    if name == "d1":
        return Dataset(rng.normal(scale=10.0, size=(300, 1))), 4
    if name == "k-equals-n":
        return Dataset(rng.normal(size=(40, 2))), 40
    if name == "far-offset":
        # four clusters in a 1e-4 box at offset 1e9, where the float spacing
        # is 1.2e-7: a grid indexed from 0 rather than from the data would
        # merge distinct cells below that scale
        centers = 1e9 + rng.uniform(0.0, 1e-4, size=(4, 2))
        return Dataset(centers[rng.integers(0, 4, size=4000)]
                       + rng.normal(scale=1e-7, size=(4000, 2))), 4
    if name == "duplicate-heavy":
        # one row 99992 times and 8 outliers: 9 distinct rows, one more than
        # the budget 8k, so the budget builds cannot keep the collapse
        coords = np.zeros((100_000, 2))
        coords[rng.choice(100_000, size=8, replace=False)] = rng.normal(scale=10.0, size=(8, 2))
        return Dataset(coords), 1
    return Dataset(1e8 + rng.normal(size=(300, 3))), 4


EDGE_BUILDS = {
    "hash-budget": lambda data, k, seed: build_covering_hash(
        data, HashCoveringConfig(k=k, budget=min(data.n, 8 * k), seed=seed)),
    "sample": lambda data, k, seed: build_covering_sample(
        data, SampleCoveringConfig(k=k, seed=seed)),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("method", sorted(EDGE_BUILDS))
@pytest.mark.parametrize("instance", ["d1", "k-equals-n", "offset-1e8", "duplicate-heavy",
                                      "centered-d8", "origin-pair", "origin-pair-1e-9",
                                      "origin-pair-1e-12", "planted-10k"])
def test_edge_case_coverings_sound(instance, method, seed):
    data, k = edge_instance(instance, seed)
    if instance == "duplicate-heavy":
        assert scale_anchor(data, k, seed) == 0.0
    result = EDGE_BUILDS[method](data, k, seed)
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert result.size <= data.n if k == data.n else result.size < data.n
    if instance.startswith("origin-pair"):
        assert result.radius_bound < 1.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", sorted(EDGE_BUILDS))
def test_mix10k_coverings_are_nontrivial(method, seed):
    # the sample-exact benchmark shape: a coreset of all n rows is sound but
    # saves nothing, so each covering seed must keep fewer
    spec = SyntheticSpec("gaussian_mixture", n=10_000, d=8, k_planted=20, seed=3)
    data = generate_synthetic(spec)[0]
    result = EDGE_BUILDS[method](data, 20, seed)
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert result.size < data.n


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_budget_that_every_scale_fits_keeps_the_first_scale(offset):
    # 150 distinct rows, each written twice, fit a budget of 200 at every
    # scale, so the budgeted search keeps its first one
    rows = offset + np.random.default_rng(5).normal(size=(150, 3))
    data = Dataset(np.vstack([rows, rows]))
    result = build_covering_hash(
        data, HashCoveringConfig(k=4, budget=200, seed=0))
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert result.size <= 200 and result.iterations == 1
    assert result.tau_used == budget_start(data, 4, 0, 200)


def test_duplicate_heavy_rows_take_one_scale():
    # 50k rows drawn from 100 distinct points: every scale fits the budget,
    # so the search keeps its first one
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(100, 3))
    data = Dataset(points[rng.integers(0, 100, size=50_000)])
    result = build_covering_hash(data, HashCoveringConfig(k=8, budget=128, seed=0))
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert result.size <= 128 and result.iterations == 1


@pytest.mark.parametrize("seed", range(3))
def test_clusters_below_float_resolution_stay_sound(seed):
    # four clusters in a 1e-4 box at offset 1e9, where the float spacing is
    # 1.2e-7: the first scale's cells are narrower than that spacing
    rng = np.random.default_rng(seed)
    centers = 1e9 + rng.uniform(0.0, 1e-4, size=(4, 2))
    coords = centers[rng.integers(0, 4, size=4000)] + rng.normal(scale=1e-7, size=(4000, 2))
    result = build_covering_hash(Dataset(coords), HashCoveringConfig(k=4, budget=100, seed=seed))
    assert covering_ok(coords, result.subset, result.radius_bound)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("method", sorted(EDGE_BUILDS))
@pytest.mark.parametrize("instance", ["d1", "k-equals-n", "offset-1e8", "duplicate-heavy",
                                      "centered-d8", "origin-pair", "origin-pair-1e-9",
                                      "origin-pair-1e-12", "planted-10k", "far-offset"])
def test_coreset_solution_keeps_the_additive_slack(instance, method, seed):
    # every row lies within radius_bound of a coreset row, which lies within
    # the coreset cost of a center: the full cost exceeds the cost on the
    # coreset by at most the covering's bound, run by run
    data, k = edge_instance(instance, seed)
    if instance == "far-offset" and method == "hash-budget":
        # budget 100 tries cells finer than the float spacing at 1e9
        result = build_covering_hash(data, HashCoveringConfig(k=k, budget=100, seed=seed))
    else:
        result = EDGE_BUILDS[method](data, k, seed)
    sol = gonzalez(data.take(result.subset), k)
    full = evaluate_on_full(data, result.subset, sol)
    assert full <= (sol.cost_on_solve_set + result.radius_bound) * (1 + 1e-9)


def capped_instance(name, seed):
    """(dataset, k, hash budget) for test_radius_bound_is_capped_at_the_diagonal."""
    if name == "clusters":
        return instances()["clusters"], 2, 10
    if name == "budget-1-d20":
        spec = SyntheticSpec("gaussian_mixture", n=400, d=20, k_planted=4, seed=1)
        return generate_synthetic(spec)[0], 1, 1
    data, k = edge_instance("far-offset", seed)
    return data, k, 100


CAPPED_BUILDS = {
    "hash-budget": (1.0, lambda data, k, budget, seed: build_covering_hash(
        data, HashCoveringConfig(k=k, budget=budget, seed=seed))),
    "sample": (sampling._RADIUS_FACTOR, lambda data, k, budget, seed: build_covering_sample(
        data, SampleCoveringConfig(k=k, sample_constant=0.1, seed=seed))),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", sorted(CAPPED_BUILDS))
@pytest.mark.parametrize("instance", ["clusters", "budget-1-d20", "far-offset"])
def test_radius_bound_is_capped_at_the_diagonal(instance, method, seed):
    # any one row is within the bounding-box diagonal of every row, so no
    # radius bound need exceed it: on the clusters sample build (4 * tau is
    # 84 against a diagonal of 62) and the budget-1 grid in d = 20 (tau
    # doubles past one cell holding every row) the cap binds
    data, k, budget = capped_instance(instance, seed)
    factor, build = CAPPED_BUILDS[method]
    result = build(data, k, budget, seed)
    extent = data.coords.max(axis=0) - data.coords.min(axis=0)
    diagonal = float(np.sqrt((extent**2).sum()))
    assert covering_ok(data.coords, result.subset, result.radius_bound)
    assert result.radius_bound <= diagonal * (1 + 1e-12)
    if (instance, method) in {("clusters", "sample"), ("budget-1-d20", "hash-budget")}:
        assert result.radius_bound < factor * result.tau_used


@pytest.mark.parametrize("budget", [300, 301])
@pytest.mark.parametrize("build", [build_covering_hash])
def test_budget_of_n_keeps_the_exact_collapse(build, budget):
    # any budget of n or more fits the duplicate collapse, at radius 0
    rows = np.random.default_rng(6).normal(size=(150, 3))
    data = Dataset(np.vstack([rows, rows]))
    result = build(data, HashCoveringConfig(k=4, budget=budget, seed=0))
    assert result.radius_bound == 0.0 and result.tau_used == 0.0
    assert result.iterations == 1 and result.sizes == (150,)
    assert result.subset.tolist() == first_occurrences(data.coords)[1].tolist()


def test_large_offset_at_large_n_stays_sound():
    # a sweep started far below the data's float resolution (the old 1-D
    # estimate over n**2 did) overflows the int64 cell indices, which puts
    # every row in one cell: one row at a radius bound of 1e-11
    data = Dataset(1e8 + np.random.default_rng(0).normal(size=(200_000, 1)))
    result = build_covering_hash(
        data, HashCoveringConfig(k=4, budget=32, seed=0))
    assert covering_ok(data.coords, result.subset, result.radius_bound)
