"""Guard on the public API: every exported name has a caller outside tests.

A name in `stereomot.__all__` must be read somewhere in the library other
than the package's own re-export, or in `scripts/`, or be named in
README.md. Code that only tests reach belongs in `tests/`.
"""

import ast
import re
from pathlib import Path

import stereomot

ROOT = Path(__file__).resolve().parents[1]


def names_read(paths) -> set[str]:
    """Every name and attribute the Python files read (definitions and
    assignments do not count)."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller_outside_tests():
    package = ROOT / "src" / "stereomot"
    read = (names_read(p for p in package.glob("*.py")
                       if p.name != "__init__.py")
            | names_read((ROOT / "scripts").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in stereomot.__all__ if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []
