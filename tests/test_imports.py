"""No module of the package, its tools or its tests imports a name it never reads.

Every public function, method and class of the package is named by the
package, its benchmark or its tools, so no entry point lives for tests alone.

The package also imports no thread, process or event-loop module: its
stores hold no locks because every call comes from one thread.  Its engine
(scheduler, stores, runtime, kernels) imports no serialization module: values
cross its layers as they are.  Handlers and shuffle adapters reach storage
only through the ops they yield: every op name that the package yields or
returns (the shuffle adapters build their writes and tombstones as values)
is in the runtime's op table, and the modules that hold them name no store.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from microreduce.calibration import DEFAULT_CALIBRATION
from microreduce.runtime import StorageClients
from microreduce.storage import KvStore, MessageQueue, ObjectStore

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "microreduce"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("tools/*.py")) + sorted(
    ROOT.glob("tests/*.py"))
CONCURRENCY_MODULES = frozenset({"threading", "_thread", "multiprocessing", "concurrent",
                                 "asyncio"})
# The engine passes values between its layers; wire formats belong to the
# modules that render artifacts and dead letters.
ENGINE_MODULES = ("sim.py", "storage.py", "runtime.py", "kernels.py")
SERIALIZATION_MODULES = frozenset({"json", "pickle", "marshal"})
# Handlers and adapters hold no store: what they touch, they name in an op.
OP_ISSUING_MODULES = ("pipeline.py", "ports.py")
STORE_NAMES = frozenset({"StorageClients", "ObjectStore", "KvStore", "MessageQueue"})
# Code that counts as a use of the package's public names: not the tests.
USING_MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("tools/*.py"))


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


def banned_imports(source: str, banned: frozenset[str]) -> list[str]:
    """Modules imported by ``source`` whose top-level package is in ``banned``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names
                         if a.name.partition(".")[0] in banned)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.partition(".")[0] in banned):
            found.add(node.module)
    return sorted(found)


def test_checker_finds_an_unread_import():
    source = "import json\nimport os.path\nfrom a import b as c, d\nprint(c, os)\n"
    assert unused_imports(source) == ["d", "json"]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_a_concurrency_import():
    source = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "import heapq\nfrom .threads import pool\n")
    assert banned_imports(source, CONCURRENCY_MODULES) == ["concurrent.futures", "threading"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent == PACKAGE],
                         ids=_module_id)
def test_package_module_imports_no_concurrency(path):
    assert banned_imports(path.read_text(encoding="utf-8"), CONCURRENCY_MODULES) == []


def test_checker_finds_a_serialization_import():
    source = "import json\nfrom pickle import dumps\nimport heapq\nfrom .marshal import x\n"
    assert banned_imports(source, SERIALIZATION_MODULES) == ["json", "pickle"]


@pytest.mark.parametrize("name", ENGINE_MODULES)
def test_engine_module_imports_no_serialization(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert banned_imports(source, SERIALIZATION_MODULES) == []


def op_names(source: str) -> list[str]:
    """The string literals at the head of the tuples that ``source`` yields or
    returns."""
    return [node.value.elts[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Yield, ast.Return)) and isinstance(node.value, ast.Tuple)
            and node.value.elts and isinstance(node.value.elts[0], ast.Constant)
            and isinstance(node.value.elts[0].value, str)]


def names_in(source: str, names: frozenset[str]) -> list[str]:
    """Which of ``names`` ``source`` imports, reads or reaches as an attribute."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return sorted(found & names)


def test_checker_finds_yielded_ops_and_store_names():
    source = ("from .storage import KvItem, KvStore\n"
              "def handler(ctx):\n"
              "    body = yield ('object_get', 'k')\n"
              "    yield 5.0\n"
              "    yield ctx.clients.queue\n"
              "    yield (body, 'kv_put')\n"
              "    if body:\n"
              "        return (body, 'object_put')\n"
              "    return ('results_list', body)\n")
    assert sorted(op_names(source)) == ["object_get", "results_list"]
    assert names_in(source, STORE_NAMES | {"clients"}) == ["KvStore", "clients"]


def test_every_yielded_op_is_in_the_op_table():
    table = StorageClients(DEFAULT_CALIBRATION, objects=ObjectStore(),
                           raw_objects=ObjectStore(), kv=KvStore(), queue=MessageQueue()).ops
    issued = {path.name: op_names(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert issued["pipeline.py"] and issued["ports.py"]
    assert {name: sorted(set(ops) - set(table)) for name, ops in issued.items()
            if set(ops) - set(table)} == {}


@pytest.mark.parametrize("name", OP_ISSUING_MODULES)
def test_op_issuing_module_names_no_store(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert names_in(source, STORE_NAMES) == []


def public_definitions(tree: ast.Module) -> list[ast.AST]:
    """The public functions, methods and classes ``tree`` defines at module or
    class level, except the commands registered with ``@main.command``."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            pending.extend(node.body)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or any(
                isinstance(d, ast.Call) and ast.unparse(d.func) == "main.command"
                for d in node.decorator_list):
            continue
        if not node.name.startswith("_"):
            found.append(node)
    return found


def mentions(node: ast.AST) -> list[str]:
    """Each name ``node`` reads, reaches as an attribute, imports or spells as
    a string, once per mention."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and (
                n.value.isidentifier()):
            out.append(n.value)
    return out


def unused_public_names(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Public names defined in the ``defining`` sources that no source names
    outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = Counter(m for tree in trees.values() for m in mentions(tree))
    return sorted(d.name for name in defining for d in public_definitions(trees[name])
                  if named[d.name] == mentions(d).count(d.name))


def test_checker_finds_a_public_name_only_its_definition_names():
    sources = {
        "lib.py": ("import click\n"
                   "class Store:\n"
                   "    def put(self): return self.put\n"
                   "    def save(self): return self.save()\n"
                   "    def _hidden(self): pass\n"
                   "def patched(): pass\n"
                   "@click.group()\n"
                   "def main(): pass\n"
                   "@main.command('run')\n"
                   "def run(): pass\n"),
        "use.py": "from lib import Store\nStore().put()\nNAMES = ('patched',)\n",
    }
    assert unused_public_names(sources, ["lib.py"]) == ["save"]


def test_every_public_name_is_named_outside_tests():
    sources = {str(path): path.read_text(encoding="utf-8") for path in USING_MODULES}
    package = [str(path) for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_public_names(sources, package) == []
