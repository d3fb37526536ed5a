"""Every name the benchmark tracer wraps must still exist in the package.

``bench/tracing.py`` looks each name up with ``getattr`` when a traced run
starts, so a renamed or deleted function would break every traced run
while the untraced benchmark and its checks still pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("qualified", [*tracing.SPANS, *tracing.LEAVES])
def test_traced_name_is_a_callable(qualified):
    module_name, attr = qualified.split(".")
    assert module_name in tracing.MODULES
    module = importlib.import_module(f"leeway.{module_name}")
    assert callable(getattr(module, attr, None)), qualified
