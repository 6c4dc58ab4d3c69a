"""No module-level import binds a name its module never uses, no top-level
definition, module-level constant, public method or dataclass field of the
package goes unread by the program and its benchmark, and no shared test
code goes unread by the tests."""
import ast
from collections import Counter
from pathlib import Path
from typing import Optional

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_locally(fn: ast.AST) -> set[str]:
    """Names a function or lambda binds in its own scope: its parameters
    and the names it assigns, less those it declares global or nonlocal."""
    a = fn.args
    bound = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                             a.vararg, a.kwarg) if p is not None}
    declared: set[str] = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (*_SCOPES, ast.ClassDef)):
            if not isinstance(node, ast.Lambda):
                bound.add(node.name)
            continue  # its own scope
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _referenced(tree: ast.AST, skip: Optional[ast.AST] = None) -> set[str]:
    """Names, attribute names, Name.attribute pairs and identifier strings
    in tree, outside skip.  A name a function binds locally is not a
    reference inside that function.

    Strings count because code may look a function up by its name (the
    benchmark's tracer rebinds module attributes from a table of names).
    """
    out: set[str] = set()
    todo: list[tuple[ast.AST, frozenset]] = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        if node is skip:
            continue
        if isinstance(node, _SCOPES):
            local = local | _bound_locally(node)
        if isinstance(node, ast.Name):
            if node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            if isinstance(node.value, ast.Name):
                out.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
        todo.extend((child, local) for child in ast.iter_child_nodes(node))
    return out


def _unread(modules: dict[str, str], readers: dict[str, str], pick) -> list[str]:
    """module:label of each definition pick(tree) yields as (label, key,
    node) that no module of readers (modules included) references as key
    outside node."""
    trees = {path: ast.parse(src) for path, src in {**readers, **modules}.items()}
    everywhere: dict[str, set[str]] = {}
    for path, tree in trees.items():
        for name in _referenced(tree):
            everywhere.setdefault(name, set()).add(path)
    found = []
    for path in modules:
        tree = trees[path]
        for label, key, node in pick(tree):
            where = everywhere.get(key, set())
            if where - {path}:
                continue
            if path in where and key in _referenced(tree, skip=node):
                continue
            found.append(f"{path}:{label}")
    return found


def unread_definitions(modules: dict[str, str],
                       readers: dict[str, str]) -> list[str]:
    """module:name of each top-level function or class of modules that no
    module of readers (modules included) references outside its own
    definition."""
    return _unread(modules, readers, lambda tree: [
        (node.name, node.name, node) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))])


def unread_constants(modules: dict[str, str],
                     readers: dict[str, str]) -> list[str]:
    """module:NAME of each module-level assigned name of modules that no
    module of readers (modules included) references outside its own
    assignment."""
    return _unread(modules, readers, lambda tree: [
        (target.id, target.id, node) for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)])


def _public_methods(tree: ast.AST):
    return [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def unread_methods(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:Class.method of each public method of a top-level class of
    modules that no module of readers (modules included) references outside
    its own definition.  A name that two classes of modules define counts
    as read only through Class.method, so a read of one of them does not
    hide the other."""
    names = Counter(node.name for src in modules.values()
                    for _, node in _public_methods(ast.parse(src)))

    def pick(tree):
        for cls, node in _public_methods(tree):
            label = f"{cls.name}.{node.name}"
            key = label if names[node.name] > 1 else node.name
            yield label, key, node

    return _unread(modules, readers, pick)


def test_checker_finds_unread_definitions():
    lib = (
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def by_name(): pass\n"
        "class Unread:\n"
        "    def used(self): return Unread()\n"
    )
    user = "import lib\nlib.used()\nTABLE = [('lib', 'by_name')]\n"
    assert unread_definitions({"lib.py": lib}, {"user.py": user}) == [
        "lib.py:recursive", "lib.py:Unread"]


def test_checker_finds_unread_methods():
    lib = (
        "class Box:\n"
        "    def __init__(self): self.n = self.size()\n"
        "    def size(self): return 1\n"
        "    def grow(self): return self.grow()\n"
        "    def by_name(self): pass\n"
        "    def unread(self): pass\n"
        "    def _private(self): pass\n"
        "    @property\n"
        "    def width(self): return 2\n"
        "    @property\n"
        "    def height(self): return 3\n"
    )
    user = "import lib\nprint(lib.Box().width)\nTABLE = ['by_name']\n"
    assert unread_methods({"lib.py": lib}, {"user.py": user}) == [
        "lib.py:Box.grow", "lib.py:Box.unread", "lib.py:Box.height"]


def test_checker_qualifies_method_names_two_classes_define():
    # a bare read of at does not say whose at it is; only B.at is read
    lib = (
        "class A:\n"
        "    def at(self): pass\n"
        "    def of(): return A()\n"
        "    def size(self): pass\n"
        "class B:\n"
        "    def at(self): return B.of()\n"
        "    def of(): return B()\n"
    )
    user = "from lib import A, B\nB.at(A.of())\nA.of().at()\nprint(A().size())\n"
    assert unread_methods({"lib.py": lib}, {"user.py": user}) == ["lib.py:A.at"]


def test_checker_finds_unread_constants():
    lib = (
        "USED = 4\n"
        "UNREAD = 5\n"
        "TYPED: int = 6\n"
        "LOCAL = 7\n"
        "DERIVED = LOCAL + 1\n"
        "A = B = 8\n"
        "def f(): UNREAD = 1; return UNREAD\n"
    )
    user = "import lib\nprint(lib.USED, lib.B)\n"
    assert unread_constants({"lib.py": lib}, {"user.py": user}) == [
        "lib.py:UNREAD", "lib.py:TYPED", "lib.py:DERIVED", "lib.py:A"]


def _sources(*parts) -> dict[str, str]:
    return {str(f.relative_to(ROOT)): f.read_text()
            for f in sorted(ROOT.joinpath(*parts).glob("*.py"))}


def test_package_has_no_unread_definitions():
    # tests do not count as readers: code only they read is reference code
    # and lives under tests/
    modules = _sources("src", "uta")
    del modules[str(Path("src", "uta", "__init__.py"))]
    readers = _sources("perfbench")
    assert len(modules) >= 8 and len(readers) >= 4
    found = unread_definitions(modules, readers)
    assert not found, "definitions nothing reads:\n" + "\n".join(found)


def test_package_has_no_unread_constants():
    # a constant only tests read is reference data, as for definitions
    modules = _sources("src", "uta")
    del modules[str(Path("src", "uta", "__init__.py"))]
    readers = _sources("perfbench")
    assert len(modules) >= 8 and len(readers) >= 4
    found = unread_constants(modules, readers)
    assert not found, "module-level constants nothing reads:\n" + "\n".join(found)


def test_package_has_no_unread_methods():
    # a method only tests call is reference code, as for definitions
    modules = _sources("src", "uta")
    readers = _sources("perfbench")
    assert len(modules) >= 8 and len(readers) >= 4
    found = unread_methods(modules, readers)
    assert not found, "public methods nothing reads:\n" + "\n".join(found)


def test_shared_test_code_has_no_unread_definitions():
    # reference code moved out of the package must not outlive its last test
    readers = {str(f.relative_to(ROOT)): f.read_text()
               for part in ("tests", "perfbench")
               for f in sorted((ROOT / part).glob("*.py"))}
    modules = {path: readers[path] for path in
               (str(Path("tests", "reference.py")), str(Path("tests", "conftest.py")))}
    found = unread_definitions(modules, readers)
    assert not found, "definitions nothing reads:\n" + "\n".join(found)


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def unread_fields(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:Class.field of each dataclass field of modules that no module
    of readers (modules included) reads as an attribute or names in a
    string; assigning the field does not count as reading it."""
    read: set[str] = set()
    for src in {**readers, **modules}.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{path}:{node.name}.{item.target.id}"
            for path, src in modules.items()
            for node in ast.parse(src).body
            if isinstance(node, ast.ClassDef)
            and any(map(_is_dataclass, node.decorator_list))
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_checker_finds_unread_fields():
    lib = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Span:\n"
        "    line: int\n"
        "    col: int\n"
        "    end: int\n"
        "    note: str = ''\n"
        "@dataclass\n"
        "class Box:\n"
        "    size: int\n"
        "class Plain:\n"
        "    hidden: int\n"
    )
    user = ("import lib\ns = lib.Span(1, 2, 3)\nprint(s.line, getattr(s, 'col'))\n"
            "b = lib.Box(1)\nb.size = 2\n")
    assert unread_fields({"lib.py": lib}, {"user.py": user}) == [
        "lib.py:Span.end", "lib.py:Span.note", "lib.py:Box.size"]


def test_package_has_no_unread_fields():
    modules = _sources("src", "uta")
    readers = _sources("perfbench")
    assert len(modules) >= 8 and len(readers) >= 4
    found = unread_fields(modules, readers)
    assert not found, "dataclass fields nothing reads:\n" + "\n".join(found)
