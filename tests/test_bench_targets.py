"""The traced benchmark run (`bench/run.py --trace 1`) wraps each laps
function named in bench/tracing.py TARGETS; a renamed or deleted target
would break that run, so each must still resolve the way the tracer looks
it up."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target[1:3] for target in module.TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # The tracer reads a method from the class dict, not through getattr.
    assert callable(vars(owner)[name])
