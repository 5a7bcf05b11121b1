"""Package-level checks: every module's declared exports exist and has a caller, every parameter is read, and the
README names every module."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qtrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(qtrack.__path__))
ROOT = Path(__file__).resolve().parents[1]


def test_modules_found():
    assert {"association", "matcher", "metrics", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qtrack.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def _layout_rows() -> list[tuple[str, str]]:
    """(module, contents) of each row of README's "Package layout" table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` +\|(.*)$", table, flags=re.MULTILINE)


def test_readme_package_layout_names_every_module():
    """README's "Package layout" table has one row per module under `src/qtrack`, and no other."""
    rows = [m for m, _ in _layout_rows()]
    assert len(rows) == len(set(rows)), "a module has two rows"
    assert sorted(rows) == MODULES


def test_readme_package_layout_names_only_classes_that_exist():
    """Every backticked CapWords name in a module's row of README's "Package layout" table is an attribute of it."""
    named = {(m, name) for m, row in _layout_rows()
             for name in re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)`", row)}
    assert named, "no class named in the table"
    assert sorted((m, n) for m, n in named if not hasattr(importlib.import_module(f"qtrack.{m}"), n)) == []


def _references(path: Path, skip: str | None) -> set[str]:
    """The names a file refers to: names, attributes and string constants, outside `__all__` and the top-level
    definition of `skip`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if getattr(node, "name", None) == skip:
            continue
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("__all__", skip) for t in node.targets):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)  # the benchmark looks some functions up by name
    return names


def _unused(exported: list[tuple[str, str]]) -> list[str]:
    """The names of the (name, defining module) pairs in `exported` that no program or benchmark file refers to."""
    callers = [ROOT / "src" / "qtrack" / f"{m}.py" for m in MODULES]
    callers += [path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
    return [name for name, home in exported
            if not any(name in _references(path, name if path.stem == home else None) for path in callers)]


def test_every_module_export_has_a_caller():
    """Every name in a module's `__all__` is used by the program (outside its own definition) or by the benchmark.

    A name only tests call is surface to delete. `detection_prf` waits for its caller, the run's own report.
    """
    exported = [(name, m) for m in MODULES for name in getattr(importlib.import_module(f"qtrack.{m}"), "__all__", [])]
    assert _unused(exported) == ["detection_prf"]


def _unread_parameters(path: Path) -> list[str]:
    """`function(parameter)` for each parameter of a function or lambda in `path` that its body never reads.

    `self`, `cls` and names that start with "_" are exempt.
    """
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}({p})" for p in params
                   if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return unread


def test_every_parameter_is_read():
    """No function in the program takes an argument only to ignore it."""
    assert [u for m in MODULES for u in _unread_parameters(ROOT / "src" / "qtrack" / f"{m}.py")] == []
