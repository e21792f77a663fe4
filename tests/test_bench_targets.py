"""The benchmark's trace targets still name callable etagap functions.

perfbench/spans.py wraps each (module, function) pair of TARGETS on the
module attribute its callers resolve; a renamed or deleted function would
break ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, function", _targets())
def test_target_is_callable(module, function):
    mod = importlib.import_module(f"etagap.{module}")
    assert callable(getattr(mod, function, None)), f"etagap.{module}.{function}"
