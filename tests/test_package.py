"""Package-level checks: every module's declared exports exist, and the README names every module."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_package_layout_names_every_module():
    """README's "Package layout" table has one row per module under `src/qtrack`, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|", table, flags=re.MULTILINE)
    assert len(rows) == len(set(rows)), "a module has two rows"
    assert sorted(rows) == MODULES
