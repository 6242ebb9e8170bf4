"""Every name an import binds is read in its module, or exported through its
`__all__`: the package's modules and the test modules and scripts.
`from __future__` imports and an import on a line marked `# noqa: F401` (kept
for its side effect) are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "edysec").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    """`line: name` of each import in `path` whose bound name is never read."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import json  # noqa: F401\n"
        "from a.b import c as d, e, f\n"
        "print(sys.argv, e)\n"
        "__all__ = ['f']\n"
    )
    assert unused_imports(module) == ["2: os", "4: d"]
