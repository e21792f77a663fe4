"""The benchmark's trace targets still name callable etagap functions.

perfbench/spans.py wraps each (module, function) pair of TARGETS on the
module attribute its callers resolve; a renamed or deleted function would
break ``perfbench/run.py --trace 1``, and a caller that binds a target by
name in another module would call past the wrapper.
"""

import importlib
import importlib.util
import pkgutil
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


def test_no_module_binds_a_target_by_name():
    # a by-name import outside the defining module is patched only if that pair is a target too
    targets = set(_targets())
    modules = [info.name for info in pkgutil.iter_modules(importlib.import_module("etagap").__path__)]
    untraced = []
    for owner, function in targets:
        fn = getattr(importlib.import_module(f"etagap.{owner}"), function)
        for module in modules:  # the package __init__ is not among them
            if f"etagap.{module}" == fn.__module__ or (module, function) in targets:
                continue
            bound = [name for name, value in vars(importlib.import_module(f"etagap.{module}")).items() if value is fn]
            untraced += [f"etagap.{module}.{name} is {fn.__module__}.{function}" for name in bound]
    assert not untraced
