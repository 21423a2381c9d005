"""Every function, class, method and constant of the package is read by the package.

A top-level function, class or assigned name, or a method, that is not a
dunder and that no code in ``src/flatcheck`` reads outside its own
definition is surface that only tests reach: it grows the package
without serving a command.  Such a name either gets a caller, is deleted,
or is listed in ``ALLOWED`` with the reason it stays.

The check reads syntax trees only, as ``test_imports.py`` does.  It matches
by name: a read of ``.scale`` counts for every method called ``scale``.  A
string constant equal to a name counts as a read, because the CLI looks its
commands up by name.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flatcheck"

ALLOWED = {
    "liepair.effective_check": "acceptance criteria use it",
    "liepair.semidirect_from_rep": "acceptance criteria use it",
    "liepair.pair_to_json": "ROADMAP item 3's Lie-pair output will call it",
    "forms.trace_powers": "ROADMAP item 17 will call it",
    "forms.secondary_class_check": "ROADMAP item 17 will call it",
    "liepair.order_of": "perfbench/tracer.py wraps it",
    "catalog.get_chart": "perfbench/tracer.py wraps it; tests build catalog charts with it",
    "rational.Poly.int_form": "tests use it as a view",
    "rational.Poly.eval_float": "perfbench/tracer.py wraps it",
    "arrows.G3_IDENTITY": "tests use it as the identity of the group law",
    "arrows.G3Jet.to_map": "tests check the closed-form group law against jetcore through it",
    "arrows.G3Jet.from_map": "tests check the closed-form group law against jetcore through it",
    "spencer.algebraic_bracket": "the point reference that tests compare the field bracket with: "
                                 "it brackets Taylor polynomials as vector fields",
    "spencer.algebraic_bracket_fields": "tests compare it with the point bracket; "
                                        "perfbench/tracer.py wraps it",
    "spencer.JetField.at_point": "tests compare the field bracket with the point reference through "
                                 "it: it gives a field's Taylor polynomials at a point",
}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: loaded names and
    attributes, and string constants."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function, class and
    assigned name that is not a dunder, and of each method of a top-level
    class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield target.id, target.id, node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not _dunder(method.name):
                    yield f"{node.name}.{method.name}", method.name, method


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The definitions that no module of ``sources`` (module name -> source
    text) reads outside the definition itself, as "module.qualname"."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = Counter()
    for tree in trees.values():
        read.update(_reads(tree))
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name, node in _definitions(tree)
            if read[name] == _reads(node)[name]]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_read_by_the_package():
    assert sorted(set(unread_definitions(package_sources())) - set(ALLOWED)) == []


def test_every_allowed_name_is_defined_and_unread():
    # an entry that gained a caller, or whose definition is gone, is stale
    assert sorted(set(ALLOWED) - set(unread_definitions(package_sources()))) == []


def test_the_check_sees_each_kind_of_unread_definition():
    sources = {
        "a": ("def unused():\n"
              "    return 1\n"
              "def recursive(n):\n"
              "    return recursive(n - 1) if n else 0\n"
              "def called():\n"
              "    return 2\n"
              "def by_name():\n"
              "    return 3\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.opened = 0\n"
              "    def opened(self):\n"
              "        return 4\n"
              "    def read(self):\n"
              "        return 5\n"
              "COMMAND = 'by_name'\n"
              "__version__ = '1'\n"
              "UNUSED_LIMIT = 3\n"
              "SCALE: int = 2\n"),
        "b": ("from a import COMMAND, SCALE, Box, called\n"
              "def main():\n"
              "    return (called() + Box().read()) * SCALE if COMMAND else 0\n"),
    }
    assert unread_definitions(sources) == [
        "a.unused", "a.recursive", "a.Box.opened", "a.UNUSED_LIMIT", "b.main"]
