"""Static checks on the package source, with the stdlib `ast` module."""

import ast
from pathlib import Path

import pytest

import lusk
from lusk.config import _KEYS

SRC = Path(lusk.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# (module, name) imported and never used on purpose: perfbench/tracing.py
# patches train.conv2d to time the convolutions the training loop reaches,
# and its TIMED entry (model, "upsample_nearest2x", ...) reads
# model.upsample_nearest2x
UNUSED_ON_PURPOSE = {("train", "conv2d"), ("model", "upsample_nearest2x")}
# (module, name) defined at top level and read only by tests, on purpose:
# tensor.upsample_nearest2x is the float64 oracle of upsample_conv2d and
# stays while perfbench/tracing.py's TIMED entry
# (model, "upsample_nearest2x", ...) patches it
READ_BY_TESTS_ONLY = {("tensor", "upsample_nearest2x")}


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


def names_read(source: str) -> set[str]:
    """Every name and attribute that the code of `source` loads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def top_level_definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_reader_sees_loads_not_definitions():
    source = "def f():\n    return g(x.attr)\n\nclass C:\n    pass\n"
    assert top_level_definitions(source) == ["f", "C"]
    assert names_read(source) == {"g", "x", "attr"}


def test_every_definition_has_a_reader_outside_tests():
    """Each top-level function and class of src/lusk is read by the package
    or by the benchmark, not only by the test suite."""
    readers = sorted(SRC.glob("*.py")) + [path for path in sorted(PERFBENCH.glob("*.py"))
                                          if not path.name.startswith("test_")]
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in readers))
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in top_level_definitions(path.read_text(encoding="utf-8"))
              if name not in read and (path.stem, name) not in READ_BY_TESTS_ONLY]
    assert unread == [], f"defined in src/lusk and read only by tests: {unread}"


def attributes_read(source: str) -> set[str]:
    """Every attribute that the code of `source` loads outside each __post_init__."""
    tree = ast.parse(source)
    checks = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
              for node in ast.walk(f)}
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load) and id(n) not in checks}


def test_attribute_reader_skips_post_init():
    source = ("class C:\n    def __post_init__(self):\n        check(self.a)\n\n"
              "    def f(self):\n        self.c = 1\n        return self.b\n")
    assert attributes_read(source) == {"b"}


def test_every_setting_has_a_reader():
    """Each config key is read by the program outside config.py, not only by
    the check of its own dataclass."""
    read = set().union(*(attributes_read(path.read_text(encoding="utf-8"))
                         for path in sorted(SRC.glob("*.py")) if path.name != "config.py"))
    unread = [key for key in _KEYS if key not in read]
    assert unread == [], f"config keys read only in config.py or a __post_init__: {unread}"


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter of each def in `source`, other
    than self, that its body (nested functions included) never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}.{a.arg}" for a in params
                       if a.arg != "self" and a.arg not in read]
    return unread


def test_parameter_reader_sees_reads_in_nested_functions():
    source = ("def f(self, a, b, *rest, c=0, **kw):\n    def g():\n        return a + kw\n"
              "    return g\n")
    assert unread_parameters(source) == ["f.b", "f.rest", "f.c"]


def test_every_parameter_is_read():
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in unread_parameters(path.read_text(encoding="utf-8"))]
    assert unread == [], f"parameters that their function never reads: {unread}"
