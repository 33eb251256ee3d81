"""Module hygiene: what each module says it exports exists, the package's lazy
exports agree with the modules, and no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import tumbug

SRC = Path(tumbug.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"tumbug.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(tumbug._EXPORTS))
def test_package_exports_are_module_exports(name):
    module = importlib.import_module(f"tumbug.{name}")
    assert set(tumbug._EXPORTS[name]) - set(module.__all__) == set()


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_sees_an_unused_import():
    source = "import os\nimport re\nfrom math import pi, tau\n__all__ = ['tau']\nre.compile(pi)\n"
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["os"]


MAX_LINE = 106  # the longest line in src/ when this check was added


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_line_is_wider_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []
