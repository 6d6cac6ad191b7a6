"""Every name the package exports is reached from outside the tests.

A public function or class that only tests call is dead weight in the
library: each exported name must appear in ``src/``, ``demos/``,
``bench/`` or the README somewhere other than its own ``def`` or
``class`` line and the export list of ``spherebl/__init__.py``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "spherebl" / "__init__.py"


def _exported() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return sorted(alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


def _reaching_lines() -> list[str]:
    files = [path for folder in ("src", "demos", "bench")
             for path in sorted((ROOT / folder).rglob("*.py")) if path != INIT]
    files.append(ROOT / "README.md")
    return [line for path in files for line in path.read_text().splitlines()]


LINES = _reaching_lines()


@pytest.mark.parametrize("name", _exported())
def test_export_is_reached_outside_the_tests(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    assert any(word.search(line) and not own.match(line) for line in LINES), (
        f"{name} is exported but only its definition and the tests mention it")
