"""Every name a widecat module or test module imports is used in that
module, and every definition in widecat is read somewhere in widecat."""
import ast
import pathlib

import pytest

import widecat

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "widecat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_sees_unused_and_used_names():
    source = ("import os\nimport os.path\nfrom a import b as c, d\n"
              "from __future__ import annotations\nx: d = os.sep\n")
    assert unused_imports(source) == ["c"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Read only by the tests, which use them as independent checks of modules.
TEST_ONLY = {"modules.is_isomorphic", "modules.is_indecomposable"}


def dead_definitions(sources: dict[str, str], exported) -> list[str]:
    """Functions, classes and methods (as module.Class.name) defined in the
    sources whose name no source reads, as a name or an attribute, and that
    are not exported.  Dunders are exempt."""
    defined, read = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    for module, source in sources.items():
        tree = ast.parse(source)
        visit(tree, module + ".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [qual for qual, name in defined
            if name not in read and name not in exported
            and not (name.startswith("__") and name.endswith("__"))]


def test_the_dead_definition_scan_sees_reads_and_exports():
    sources = {"m": ("class C:\n    def used(self): return self.used\n"
                     "    def unused(self): pass\n    def __repr__(self): pass\n"
                     "def f(): return C\ndef g(): pass\ndef h(): pass\n")}
    assert dead_definitions(sources, {"h"}) == ["m.C.unused", "m.f", "m.g"]


def test_every_definition_is_read_or_exported():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    dead = dead_definitions(sources, set(widecat.__all__))
    assert sorted(dead) == sorted(TEST_ONLY)
