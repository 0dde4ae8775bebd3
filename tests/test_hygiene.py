"""Source hygiene: no module of the package imports a name it never uses,
every function, class and method of the package is reachable from what runs
it, and every name the benchmark imports from the package exists.

No linter is a dependency, so this walks each module's syntax tree with the
standard library.  A name counts as used when it occurs as a Name node
anywhere in the module (an attribute chain such as json.dumps roots in one);
`annotations` is the __future__ feature, and a name listed only in __all__
counts as unused, since the package re-exports nothing.  Reachability is a
static walk described at `unreachable`; its roots are cli.main,
module-level statements and perfbench, not __all__ and not the tests, so a
definition that only tests call belongs under tests/.  A field of a
dataclass or NamedTuple in src, or an attribute a method assigns on self,
fails too when no attribute read in src or perfbench names it; reads
resolve by name here as well, and the function of a call is no read.

Attribute reads resolve by name, since a static walk cannot know the owner,
but a call is told from a plain read: x.name(...) reaches every definition
called name, while a plain x.name, where some class has a field called
name, reaches all but the methods of that name, so properties still count.
So cli's read of PurityViolation's vertex field keeps no method called
vertex alive.  A method that only tests call still survives when the
program calls some other method of the same name.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from functools import lru_cache
from importlib import import_module
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "momentsheaf"


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
    keep = used | {"annotations"}
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
    # a name listed in __all__ only is a re-export, and src keeps none
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# -- unreachable definitions ---------------------------------------------------

PERFBENCH = SRC.parent.parent / "perfbench"


def unreachable(modules: dict[str, str], entry: str, external: list[str]) -> list[str]:
    """The definitions of a package, given as {module: source}, that a static
    walk misses.  A definition is a top-level function or class (module.name)
    or a non-dunder method (module.Class.method); a class reads its bases,
    decorators, class-level statements and dunder methods.

    The walk starts at entry, at module-level statements (they run on
    import), and at what the external sources take from the package: the
    names they import and the attributes they read.  Neither __all__ nor a
    string constant is a root.  A name read in a module resolves to its
    definition there or, through `from .module import name`, elsewhere.  An
    attribute, whose owner a static walk cannot know, resolves by name: a
    called one to every definition of that name, a plain read to all but the
    methods when the name is also a field, that is, annotated in a class
    body or assigned as an attribute anywhere.
    """
    defs, imports, methods, fields = {}, {}, set(), set()
    roots = [(None, ast.parse(s)) for s in external]
    for mod, source in modules.items():
        tree = ast.parse(source)
        stored = (n for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        fields.update(n.attr for n in stored if isinstance(n.ctx, ast.Store))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                imports.update({(mod, a.asname or a.name): (node.module, a.name) for a in node.names})
            elif isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = (mod, [node])
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defs[f"{mod}.{node.name}.{item.name}"] = (mod, [item])
                        if not any("property" in ast.unparse(d) for d in item.decorator_list):
                            methods.add(f"{mod}.{node.name}.{item.name}")
                    else:
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            fields.add(item.target.id)
                        own.append(item)
                defs[f"{mod}.{node.name}"] = (mod, own)
            else:
                roots.append((mod, node))
    by_attr = {}
    for key in defs:
        by_attr.setdefault(key.rsplit(".", 1)[1], []).append(key)

    def resolve(mod, name):
        while (mod, name) in imports:
            mod, name = imports[mod, name]
        return [f"{mod}.{name}"] if f"{mod}.{name}" in defs else []

    todo = [entry]
    seen = set()
    while todo or roots:
        if todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            mod, nodes = defs[key]
        else:
            mod, node = roots.pop()
            nodes = [node]
        called = set()  # ast.walk yields a call before its callee
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
            elif isinstance(node, ast.Attribute):
                field_read = id(node) not in called and node.attr in fields
                todo += [k for k in by_attr.get(node.attr, []) if not (field_read and k in methods)]
            elif isinstance(node, ast.Name) and mod:
                todo += resolve(mod, node.id)
            elif isinstance(node, ast.ImportFrom) and not mod:
                package, _, sub = (node.module or "").partition(".")
                if package == "momentsheaf":
                    todo += [k for a in node.names for k in resolve(sub or "__init__", a.name)]
    return sorted(set(defs) - seen)


def test_the_guard_finds_a_dead_definition():
    modules = {
        "__init__": "from .util import exported\n__all__ = ['exported']\n",
        "cli": (
            "from .util import Violation, helper\ndef main():\n    h = helper()\n"
            "    return h.used(), Violation(1).vertex, h.size, h.label\n"
        ),
        "util": (
            "class Kept:\n    def used(self): ...\n    def benched(self): ...\n"
            "    def tested(self): ...\n    def __repr__(self): ...\n"
            "    def vertex(self, label): ...\n    @property\n    def size(self): ...\n"
            "    def label(self): ...\n"
            "class Violation:\n    vertex: int\n    size: int\n"
            "def helper():\n    return Kept()\n"
            "def exported(): ...\ndef imported(): ...\ndef tested_only(): ...\n"
        ),
    }
    bench = (
        "from momentsheaf.util import imported\nprint(thing.benched)\n"
        "SPANS = [('util', 'tested_only', 'util.tested_only')]\n"
    )
    # a test that calls Kept().tested, Kept().vertex or tested_only is no
    # root, nor is __all__; a plain read of the Violation field vertex keeps
    # no method called vertex, but a property named like a field (size) and
    # a method named like no field (label) stay read
    assert unreachable(modules, "cli.main", [bench]) == [
        "util.Kept.tested",
        "util.Kept.vertex",
        "util.exported",
        "util.tested_only",
    ]


@lru_cache(maxsize=None)
def _unreachable_in_src() -> tuple[str, ...]:
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    return tuple(unreachable(modules, "cli.main", bench))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    assert [k for k in _unreachable_in_src() if k.split(".")[0] == path.stem] == []


# -- unread fields -------------------------------------------------------------


def unread_fields(modules: dict[str, str], external: list[str]) -> list[str]:
    """The fields (module.Class.field) of the classes of a package, given as
    {module: source}, that no attribute read in it or in the external
    sources names.  A field is annotated in the body of a dataclass or
    NamedTuple, or assigned on self in a method of any class.  Reads resolve
    by name, as in `unreachable`: any x.field read keeps every field of
    that name, and the function of a call, x.field(...), is no read."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    nodes = [n for t in [*trees.values(), *map(ast.parse, external)] for n in ast.walk(t)]
    called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    read = {
        n.attr
        for n in nodes
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in called
    }
    out = set()
    for mod, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            marks = [*map(ast.unparse, cls.decorator_list), *map(ast.unparse, cls.bases)]
            names = [
                n.attr
                for n in ast.walk(cls)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"
            ]
            if any("dataclass" in m or m == "NamedTuple" for m in marks):
                names += [
                    item.target.id
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
            out.update(f"{mod}.{cls.name}.{name}" for name in names if name not in read)
    return sorted(out)


def test_the_guard_finds_an_unread_field():
    modules = {
        "cli": (
            "from .util import Point, Pair, Plain\ndef main():\n"
            "    p = Plain()\n    p.count(), p.size(), p.kept\n"
            "    return Point(1, 2).x, Pair(3, 4)\n"
        ),
        "util": (
            "from dataclasses import dataclass\nfrom typing import NamedTuple\n"
            "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int\n"
            "class Pair(NamedTuple):\n    left: int\n    right: int\n"
            "class Plain:\n    unread: int\n    def __init__(self):\n"
            "        self.kept = 1\n        self.count: int = 0\n        self.size = []\n"
            "    def size(self): ...\n"
        ),
    }
    bench = "print(thing.left)\n"
    # a field only set, by a constructor or an assignment, is unread; a
    # plain class's annotations are no fields, but what its methods assign
    # on self is, and calling x.count(...) or x.size(...) reads neither
    assert unread_fields(modules, [bench]) == [
        "util.Pair.right",
        "util.Plain.count",
        "util.Plain.size",
        "util.Point.y",
    ]


def test_no_unread_fields():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert unread_fields(modules, bench) == []


def test_perfbench_imports_resolve():
    imported = [
        (node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("momentsheaf.")
        for alias in node.names
    ]
    assert imported
    assert [f"{m}.{n}" for m, n in imported if not hasattr(import_module(m), n)] == []


def test_tracer_resolves_its_names():
    """Every name the tracer patches resolves but the two retired ones."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer("hygiene")
    t.install()
    t.uninstall()
    assert t.errors == ["no sheaf.select to trace", "no sheaf.image_basis to trace"]


def test_the_cli_imports_no_dataclasses():
    """Each CLI job is a fresh interpreter, so whatever `import
    momentsheaf.cli` loads is paid by every job: dataclasses, with the
    inspect, ast, dis and tokenize it imports, is not among it.  -S leaves
    out what the environment's .pth files import."""
    code = (
        "import sys, momentsheaf.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
