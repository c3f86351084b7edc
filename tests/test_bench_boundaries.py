"""Every layer boundary the benchmark wraps (perfbench/layers.py) names a
pihall function or method that exists.  A refactor that renames or
removes one drops that layer's metrics from the benchmark without a
failure; this test makes it fail here instead.  The benchmark is read,
never changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# The special-case registry is to be deleted (ROADMAP item 2); its
# boundaries may go with it, so they are not checked.
EXEMPT = ("pihall.registry:",)


def _layers():
    name = "_perfbench_layers"
    spec = importlib.util.spec_from_file_location(name, LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _targets():
    layers = _layers()
    boundaries = [*layers.BOUNDARIES, *layers.QUERY_BOUNDARIES.values()]
    return sorted({b.target for b in boundaries
                   if not b.target.startswith(EXEMPT)})


@pytest.mark.parametrize("target", _targets())
def test_boundary_target_resolves(target):
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        assert hasattr(obj, part), f"{target}: no attribute {part!r}"
        obj = getattr(obj, part)
    assert callable(obj), f"{target} is not callable"
