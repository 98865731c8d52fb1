"""Every name the benchmark's tracer wraps still exists where it looks for it.

``bench/tracer.py`` wraps a method through the defining class's own
``__dict__`` and a function through its module's attributes, so moving one
of these names into a base class or a helper breaks only the traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


def test_tracer_has_targets():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("key, owner, attr", TARGETS, ids=[f"{t[1]}.{t[2]}" for t in TARGETS])
def test_tracer_target_exists(key, owner, attr):
    mod_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(mod_name)
    if cls_name:
        assert attr in vars(getattr(module, cls_name)), f"{owner} does not define {attr} itself"
    else:
        assert callable(getattr(module, attr, None)), f"{mod_name} has no function {attr}"
