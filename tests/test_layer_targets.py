"""Every name the benchmark's tracer wraps still exists in the library.

The tracer skips a missing target without a word, so a renamed or moved
function would silently read 0 in the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
