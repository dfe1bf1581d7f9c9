"""Static checks on the package source, with the stdlib `ast` module."""

import ast
from pathlib import Path

import pytest

import lusk

SRC = Path(lusk.__file__).parent
# (module, name) imported and never used on purpose: perfbench/tracing.py
# patches train.conv2d to time the convolutions the training loop reaches
UNUSED_ON_PURPOSE = {("train", "conv2d")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_checker_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport os.path\n\n"
              "@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in UNUSED_ON_PURPOSE]
    assert unused == [], f"{path.name} imports {unused} and never uses them"
