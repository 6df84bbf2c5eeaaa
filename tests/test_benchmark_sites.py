"""The benchmark's trace sites still exist in the program.

``perfbench/layers.py`` times each layer by swapping the functions and
methods it names in ``SITES`` for timed wrappers while a hunt runs, and
restores them afterwards. It reads each original from its owner's
``__dict__``, so a site that was renamed, removed or moved to a base class
breaks the traced benchmark run. This test catches that in tier-1.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("layers", None)


def test_every_trace_site_resolves_on_its_owner(layers):
    missing = []
    for layer, target, _, _ in layers.SITES:
        assert layer in layers.LAYERS, target
        try:
            owner, attr = layers._resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc}")
            continue
        if attr not in vars(owner):
            missing.append(f"{target}: not defined on {owner!r} itself")
    assert not missing, missing
