"""Every name a module imports is used in that module, and the package
imports only at module level.

The package's ``__init__.py`` imports names only to re-export them, and
``from __future__`` imports switch on language features, so both are
skipped by the unused-import scan.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kcover").glob("*.py"))
FILES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in source reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == ["math (line 1)"]
    assert unused_imports("from os import path\nprint(path.sep)\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def function_level_imports(source: str) -> list[str]:
    """Import statements inside a function body, as "function (line)"."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{func.name} (line {node.lineno})" for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


def test_scan_finds_a_function_level_import():
    source = "import os\n\ndef f():\n    from math import pi\n    return pi\n"
    assert function_level_imports(source) == ["f (line 4)"]
    assert function_level_imports("import os\n\ndef f():\n    return os.sep\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_package_imports_at_module_level(path):
    assert function_level_imports(path.read_text()) == []
