"""Every name the benchmark's tracer wraps still exists in the library,
and the sample build still calls the sampling and neighbor ones.

The tracer skips a missing target without a word, so a renamed or moved
function would silently read 0 in the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kcover import neighbor, sampling
from kcover.core import Dataset

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
# the sample construction's scale anchor now runs through kcover.covering's
# coarse_approx, which is wrapped on its own
GONE = {"kcover.sampling:coarse_approx"}


def targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [t[0] for t in layers.TARGETS if t[0] not in GONE]


@pytest.mark.parametrize("target", targets())
def test_wrap_target_resolves(target):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        assert hasattr(owner, attr), f"{target} does not resolve"
        owner = getattr(owner, attr)


def test_sample_build_reaches_wrapped_targets(monkeypatch):
    # a target that resolves but is bypassed (say, sampling calling
    # ExactOracle directly) would also read 0 without an error
    calls = {"build_oracle": 0, "run_sampling_rounds": 0, "query_many": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sampling, "build_oracle",
                        counting("build_oracle", sampling.build_oracle))
    monkeypatch.setattr(sampling, "run_sampling_rounds",
                        counting("run_sampling_rounds", sampling.run_sampling_rounds))
    monkeypatch.setattr(neighbor.ExactOracle, "query_many",
                        counting("query_many", neighbor.ExactOracle.query_many))
    data = Dataset(np.random.default_rng(3).normal(size=(200, 3)))
    sampling.build_covering_sample(data, sampling.SampleCoveringConfig(k=3, seed=1))
    assert min(calls.values()) >= 1
    assert calls["build_oracle"] == calls["query_many"]
