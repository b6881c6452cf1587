"""No module of the package, its tools or its tests imports a name it never reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "microreduce"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("tools/*.py")) + sorted(
    ROOT.glob("tests/*.py"))


def _module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that nothing in ``source`` loads or exports."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_checker_finds_an_unread_import():
    source = "import json\nimport os.path\nfrom a import b as c, d\nprint(c, os)\n"
    assert unused_imports(source) == ["d", "json"]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
