"""Runtime dependencies stay numpy-only: the package imports nothing else."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kwboost"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "kwboost"}


def imported_modules(path: Path) -> set[str]:
    """Top-level modules named by absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_kwboost(path):
    assert imported_modules(path) - ALLOWED == set()
