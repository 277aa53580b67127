import math

import numpy as np
import pytest

from kcover.core import Dataset
from kcover.dimred import jl_project, jl_target_dim

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
    data = Dataset(np.random.default_rng(2).normal(size=(30, 20)))
    a = jl_project(data, 7, seed=11)
    b = jl_project(data, 7, seed=11)
    np.testing.assert_array_equal(a.coords, b.coords)
    c = jl_project(data, 7, seed=12)
    assert not np.array_equal(a.coords, c.coords)


def test_build_map_entry_scaling():
    # the rows of the identity project to the rows of the map's transpose
    matrix_t = jl_project(Dataset(np.eye(400)), 400, seed=3).coords
    # entries are N(0,1)/sqrt(target_dim)
    assert matrix_t.std() == pytest.approx(1.0 / math.sqrt(400), rel=0.05)


def test_build_map_explicit_target_dim():
    out = jl_project(Dataset(np.ones((5, 30))), 7, seed=0)
    assert (out.n, out.d) == (5, 7)
    with pytest.raises(ValueError):
        jl_project(Dataset(np.ones((5, 30))), 0, seed=0)


def test_apply_is_linear():
    x = np.arange(6.0)
    data = Dataset(np.vstack([np.zeros(6), x, 2.0 * x]))
    out = jl_project(data, 4, seed=5)
    assert out.n == 3 and out.d == 4
    np.testing.assert_array_equal(out.coords[0], np.zeros(4))
    np.testing.assert_allclose(out.coords[2], 2.0 * out.coords[1], rtol=1e-12)


def test_apply_preserves_duplicates_exactly():
    row = np.array([0.3, -1.2, 4.0, 0.0])
    out = jl_project(Dataset(np.vstack([row, row])), 3, seed=8)
    np.testing.assert_array_equal(out.coords[0], out.coords[1])


# jl_project of golden_rows() to 4 dimensions at seed 3, recorded from the
# map-then-apply pair it replaced (build_jl_map(12, 20, 0.5, 3, target_dim=4)
# and apply_jl)
GOLDEN = np.array([
    [0.03298799708288566, -0.37261493545709357, 0.07508910050736013, 0.06544975277361116],
    [0.11299284505796958, -0.09551958608334388, -0.8537836996922907, -0.5321800988399208],
    [2.627187997254853, 2.753270291249243, 2.1887911029205083, 0.9782990084152744],
    [0.30636649989088005, 0.18765182028458527, 0.311215805744066, -0.799025527071953],
    [-0.548407399644561, -1.3860612505582868, 3.2402873595776365, -0.42624775391994796],
    [0.03775602883701033, -0.5337471257497657, -1.5454038453152257, 1.336341140160512],
    [-0.39969968323839217, 0.7675676063912245, -0.2879199635717834, -0.15337813256335192],
    [1.3618398583306133, 0.07121843805873208, -1.2671710671109853, 1.7233030383843408],
    [-2.1515892065287114, 0.11327236430815002, -1.2820034098108324, 0.02879962320358409],
    [0.8541137448402659, -1.9551143243056943, 0.22889184076956115, 1.949764573302869],
    [-0.3343969686427562, 2.325962283949534, -0.1599085634868288, -1.3383463427134998],
    [-0.058778808241937125, 0.7344675167508452, 0.3574255761063609, -0.5463089184229921],
    [0.11047367920856549, -0.6279899949132792, 0.4989168155955583, 0.15876801523076686],
    [-1.0501627287463418, -1.1587952461049478, -1.3445388161407195, -1.209143134326741],
    [1.2035073985849225, 2.5068758848241424, 4.829123480094603, -1.5025082502334632],
    [0.3188955135459501, -0.3154555320825535, 0.19538889783049732, -0.738924112818141],
    [-0.5532941151603133, -1.5964467529464113, 1.8758850869739558, 0.5941991885473574],
    [0.16777856854490678, -1.4136667805254928, -1.5036647323339976, 1.846689329325573],
    [-0.8807277421976895, 1.3485596228794416, -0.5561832586217647, 0.9421291621808998],
    [2.599998235982592, -0.20791506061527348, 0.21198048590424978, 1.9315976362398883],
])


def golden_rows():
    """20 x 12 rows with two nonzero entries each, both powers of two.

    Every product of a row entry and a map entry is then exact and each
    output sums two of them, so the projection has one correct rounding
    whatever order the matrix product adds in.
    """
    x = np.zeros((20, 12))
    i = np.arange(20)
    x[i, i % 12] = 2.0 ** (i % 5 - 2)
    x[i, (5 * i + 3) % 12] -= 2.0 ** (i % 3)
    return x


def test_projection_matches_recorded_values():
    out = jl_project(Dataset(golden_rows()), 4, seed=3)
    assert np.array_equal(out.coords, GOLDEN)


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
        mapped = jl_project(data, jl_target_dim(d, n, eps), seed=seed)
        got = pairwise_dists(mapped.coords)[iu]
        ratio = got / ref
        bad_fraction.append(np.mean((ratio < 1 - eps) | (ratio > 1 + eps)))
    assert np.mean(bad_fraction) <= 0.01
