"""Package-level checks: every module's declared exports exist."""

import importlib
import pkgutil

import pytest

import qtrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(qtrack.__path__))


def test_modules_found():
    assert {"association", "matcher", "metrics", "numerics", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qtrack.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
