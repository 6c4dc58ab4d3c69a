"""No module-level import binds a name its module never uses."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level imported name never referenced.

    A name counts as referenced when it appears as a name anywhere in the
    module, attribute bases included.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .dbm import INF as inf\n"
        "def f(x: Optional[int]) -> int:\n"
        "    return np.int64(x) + inf\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Sequence")]


def test_sources_and_tests_have_no_unused_imports():
    # package __init__ modules import names to re-export them
    files = sorted((ROOT / "src" / "uta").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    files = [f for f in files if f.name != "__init__.py"]
    assert len(files) >= 15
    found = [
        f"{f.relative_to(ROOT)}:{line}: {name}"
        for f in files
        for line, name in unused_imports(f.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
