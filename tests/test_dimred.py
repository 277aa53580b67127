import math

import numpy as np
import pytest

from kcover.core import Dataset
from kcover.dimred import apply_jl, build_jl_map, jl_target_dim

from conftest import pairwise_dists


def test_target_dim_formula_large_instance():
    got = jl_target_dim(784, 70000, 0.5)
    want = min(784, math.ceil(8.0 * 0.5**-2 * math.log(70000)))
    assert got == want
    assert got < 784


def test_target_dim_clamps_to_source_dim():
    assert jl_target_dim(5, 1000, 0.1) == 5


def test_target_dim_eps_domain():
    assert jl_target_dim(100, 50, 0.5) >= 1  # upper endpoint allowed
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(ValueError):
            jl_target_dim(100, 50, bad)


def test_build_map_deterministic():
    a = build_jl_map(20, 500, 0.3, seed=11)
    b = build_jl_map(20, 500, 0.3, seed=11)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = build_jl_map(20, 500, 0.3, seed=12)
    assert not np.array_equal(a.matrix, c.matrix)


def test_build_map_entry_scaling():
    m = build_jl_map(400, 10**6, 0.5, seed=3)
    # entries are N(0,1)/sqrt(target_dim)
    sd = m.matrix.std()
    assert sd == pytest.approx(1.0 / math.sqrt(m.target_dim), rel=0.05)


def test_build_map_explicit_target_dim():
    m = build_jl_map(30, 100, 0.5, seed=0, target_dim=7)
    assert m.target_dim == 7 and m.matrix.shape == (7, 30)
    with pytest.raises(ValueError):
        build_jl_map(30, 100, 0.5, seed=0, target_dim=0)


def test_apply_is_linear():
    m = build_jl_map(6, 100, 0.4, seed=5)
    x = np.arange(6.0)
    data = Dataset(np.vstack([np.zeros(6), x, 2.0 * x]))
    out = apply_jl(m, data)
    assert out.n == 3 and out.d == m.target_dim
    np.testing.assert_array_equal(out.coords[0], np.zeros(m.target_dim))
    np.testing.assert_allclose(out.coords[2], 2.0 * out.coords[1], rtol=1e-12)


def test_apply_preserves_duplicates_exactly():
    m = build_jl_map(4, 50, 0.5, seed=8)
    row = np.array([0.3, -1.2, 4.0, 0.0])
    out = apply_jl(m, Dataset(np.vstack([row, row])))
    np.testing.assert_array_equal(out.coords[0], out.coords[1])


def test_apply_rejects_dimension_mismatch():
    m = build_jl_map(4, 50, 0.5, seed=8)
    with pytest.raises(ValueError):
        apply_jl(m, Dataset(np.zeros((2, 5))))


def test_distortion_statistics():
    # fraction of pairwise distances distorted beyond 1 +- eps, against
    # exact distances, averaged over independent maps
    eps, n, d = 0.3, 100, 50
    rng = np.random.default_rng(123)
    coords = rng.normal(size=(n, d))
    data = Dataset(coords)
    ref = pairwise_dists(coords)
    iu = np.triu_indices(n, k=1)
    ref = ref[iu]
    bad_fraction = []
    for seed in range(20):
        mapped = apply_jl(build_jl_map(d, n, eps, seed=seed), data)
        got = pairwise_dists(mapped.coords)[iu]
        ratio = got / ref
        bad_fraction.append(np.mean((ratio < 1 - eps) | (ratio > 1 + eps)))
    assert np.mean(bad_fraction) <= 0.01
