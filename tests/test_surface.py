"""Every public name of the package is used from outside the tests.

A public function, class, method or property that only tests use is dead
weight in the library.  Each one must be used in code under ``src/``,
``demos/`` or ``bench/``, or in a README python block, as a name, an
attribute or an imported name.  The export list of ``spherebl/__init__.py``
and prose (docstrings, comments, strings) do not count; f-string
expressions do.  An attribute of ``np`` or ``numpy`` is numpy's, so
``np.ones`` does not cover a method ``ones``.

An exception type earns its class only when some caller tells it apart:
each class of ``spherebl.errors`` must be named in an ``except`` clause or
an ``isinstance`` call in the same code.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spherebl"
INIT = PACKAGE / "__init__.py"
EXPORTED = sorted(alias.name for node in ast.parse(INIT.read_text()).body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


def _definitions() -> list[str]:
    out = []  # "module.name" of unexported functions and classes, "Class.name" of members
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name not in EXPORTED:
                out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
    return out


def _nodes() -> list[ast.AST]:
    sources = [path.read_text() for folder in ("src", "demos", "bench")
               for path in sorted((ROOT / folder).rglob("*.py")) if path != INIT]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [node for source in sources for node in ast.walk(ast.parse(source))]


NODES = _nodes()


def _uses() -> set[str]:
    used = set()
    for node in NODES:
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") not in ("np", "numpy"):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def _caught() -> set[str]:
    """The names of the types in every ``except`` clause and ``isinstance`` call."""
    caught = set()
    for node in NODES:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"
              and len(node.args) == 2):
            types = node.args[1]
        else:
            continue
        for t in types.elts if isinstance(types, ast.Tuple) else [types]:
            caught.add(getattr(t, "id", None) or getattr(t, "attr", None))
    return caught


USES = _uses()
CAUGHT = _caught()
ERRORS = [node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
          if isinstance(node, ast.ClassDef)]


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_reached_outside_the_tests(name):
    assert name in USES, f"{name} is exported but only the tests use it"


@pytest.mark.parametrize("name", _definitions())
def test_definition_is_reached_outside_the_tests(name):
    assert name.rpartition(".")[2] in USES, f"{name} is public but only the tests use it"


@pytest.mark.parametrize("name", ERRORS)
def test_error_type_is_told_apart_outside_the_tests(name):
    assert name in CAUGHT, f"{name} is never caught by type; raise ValueError instead"
