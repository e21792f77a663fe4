"""The benchmark's trace targets still name callable etagap functions.

perfbench/spans.py wraps each (module, function) pair of TARGETS on the
module attribute its callers resolve; a renamed or deleted function would
break ``perfbench/run.py --trace 1``, and a caller that binds a target by
name in another module, or holds it in a module-level dict, tuple or list,
would call past the wrapper.
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


def _held(value, depth=0):
    """The objects inside a dict (its keys and values), tuple or list, nested up to eight deep."""
    items = [*value, *value.values()] if isinstance(value, dict) else value if isinstance(value, (tuple, list)) else ()
    for item in items:
        yield item
        if depth < 8:
            yield from _held(item, depth + 1)


def _untraced() -> list:
    """Every module-level name through which a call would bypass the trace wrapper."""
    targets = set(_targets())
    modules = [info.name for info in pkgutil.iter_modules(importlib.import_module("etagap").__path__)]
    untraced = []
    for owner, function in targets:
        fn = getattr(importlib.import_module(f"etagap.{owner}"), function)
        for module in modules:  # the package __init__ is not among them
            by_name = f"etagap.{module}" != fn.__module__ and (module, function) not in targets
            for name, value in vars(importlib.import_module(f"etagap.{module}")).items():
                if by_name and value is fn:
                    untraced.append(f"etagap.{module}.{name} is {fn.__module__}.{function}")
                if any(item is fn for item in _held(value)):
                    untraced.append(f"etagap.{module}.{name} holds {fn.__module__}.{function}")
    return untraced


def test_no_module_binds_a_target_by_name():
    # a by-name import outside the defining module is patched only if that pair is a target too;
    # a target held in a module-level dict, tuple or list, in any module, is never patched
    assert not _untraced()


@pytest.mark.parametrize("container", [dict, tuple, list])
def test_a_target_in_a_container_is_flagged(monkeypatch, container):
    # the check above sees a registry that holds a target instead of looking it up when it runs
    from etagap import bounds, scenario

    held = {"gap": (bounds.gap_check,)} if container is dict else container([[bounds.gap_check]])
    monkeypatch.setattr(scenario, "REGISTRY_UNDER_TEST", held, raising=False)
    assert _untraced() == ["etagap.scenario.REGISTRY_UNDER_TEST holds etagap.bounds.gap_check"]
