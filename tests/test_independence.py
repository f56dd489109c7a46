"""sumrep never imports the benchmark or its reference counts.

The benchmark checks every answer against ``perfbench/reference.py``; a
package that imported it (or anything under ``perfbench``) would be
checked against itself.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sumrep"
FORBIDDEN = {"perfbench", "reference"}


def _imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                roots.add(node.module.split(".")[0])
            else:  # from . import reference / from .reference import x
                names = [node.module] if node.module else [a.name for a in node.names]
                roots.update(name.split(".")[0] for name in names)
    return roots


MODULES = sorted(PACKAGE.rglob("*.py"))


def test_package_found():
    assert PACKAGE / "repcount.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_benchmark_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _imported_roots(tree) & FORBIDDEN


def test_detector_sees_each_import_form():
    for source in ("import perfbench.reference", "from reference import counts",
                   "from . import reference", "from .reference import counts"):
        assert _imported_roots(ast.parse(source)) & FORBIDDEN, source
