"""The runtime is stdlib-only: every absolute import in src/uglov names a
standard-library module."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uglov"


def absolute_imports(path):
    """Top-level module names of the absolute imports in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {(path.name, name) for path in files
               for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside, outside
