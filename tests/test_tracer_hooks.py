"""The benchmark tracer wraps library functions by name; a rename or a
deletion there would turn its per-layer counters into nulls.  This guard
fails first: every (module, attribute) the tracer hooks must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.HOOKS


HOOKS = _hooks()


@pytest.mark.parametrize(
    "modname, attr", [(m, a) for _, m, attrs, _ in HOOKS for a in attrs]
)
def test_hook_target_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))
