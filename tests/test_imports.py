"""Every import in the package and its tests is used by the module that makes it.

An import that nothing in its module reads is either dead (left behind when
the code that used it was deleted) or a silent re-export; both hide what a
module really depends on.  The check reads each module's syntax tree only,
so it imports nothing and needs nothing beyond the standard library.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "flatcheck"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that a module imports and never reads, in source order.

    ``from __future__`` imports are exempt: they switch on compiler
    features rather than bind a name for use.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b as c" bind "c"
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


def test_the_package_has_modules():
    assert len(MODULES) > 5 and len(TEST_MODULES) > 5


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_each_kind_of_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "import json as j\n"
              "from typing import List, Tuple as T\n"
              "from . import sibling\n"
              "def f(x: List) -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [
        "line 4: j", "line 5: T", "line 6: sibling"]
