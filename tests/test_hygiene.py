"""Source hygiene: no module of the package imports a name it never uses,
and no function, class or method of the package goes unreferenced.

No linter is a dependency, so this walks each module's syntax tree with the
standard library.  A name counts as used when it occurs as a Name node
anywhere in the module (an attribute chain such as json.dumps roots in one);
names listed in __all__ are re-exports, and `annotations` is the
__future__ feature.  A definition counts as referenced when its name occurs
as a Name, as an attribute, or as a part of a dotted-identifier string in
the package, the tests or perfbench.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "momentsheaf"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = used | _exported(tree) | {"annotations"}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in keep)


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(dumps(osp.sep))\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# -- dead definitions -------------------------------------------------------

ROOT = SRC.parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and every non-dunder method of a
    top-level class as Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return out


def references(source: str) -> set[str]:
    """Names read as a Name or an attribute, and the parts of every string
    constant that is a dotted identifier (tables such as perfbench's SPANS
    name the functions they patch)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def dead_definitions(defining: str, referencing: list[str]) -> list[str]:
    used = set().union(*map(references, referencing))
    return [name for name in definitions(defining) if name.split(".")[-1] not in used]


@lru_cache(maxsize=None)
def _all_sources() -> tuple[str, ...]:
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return tuple(p.read_text(encoding="utf-8") for p in paths)


def test_the_guard_finds_a_dead_definition():
    defining = (
        "class Kept:\n"
        "    def used(self): ...\n"
        "    def patched(self): ...\n"
        "    def unused(self): ...\n"
        "    def __repr__(self): ...\n"
        "def helper(): ...\n"
        "def orphan(): ...\n"
    )
    referencing = [
        "helper(Kept().used)\n",
        "SPANS = [('mod', 'Kept.patched', 'mod.patched')]\n",
    ]
    assert dead_definitions(defining, referencing) == ["Kept.unused", "orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    assert dead_definitions(path.read_text(encoding="utf-8"), list(_all_sources())) == []
