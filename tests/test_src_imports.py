"""Every name imported in a module of src/bihomlie is used in that module,
and every name it defines is read somewhere.

Every file of the package is covered, __init__.py too, so a re-export
fails as an unused import. `from __future__ import annotations` is a
compiler directive, and so exempt. Plain stdlib `ast`: a name counts as
used when it appears as a Name node, or inside a string annotation. A
private definition must be read in src/; a public one in src/, in bench/,
or in the acceptance suite. A public method or property of a class in src/
must be read in src/ outside its own definition, in bench/, or in the
acceptance suite."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bihomlie"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"]
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_finds_dead_names():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from re import compile as c, sub\n\ndef f(x: 'Pattern') -> sub:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["c", "math"]
    assert unused_imports("from typing import Pattern\ndef f(x: 'Pattern'): pass\n") == []


def test_src_modules_use_every_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level single-underscore functions, classes and constants."""
    return [n for n in definitions(tree) if n.startswith("_") and not n.startswith("__")]


def reference_counts(node: ast.AST) -> Counter:
    """How often each name is read as a Name or as the attribute of an
    Attribute."""
    return Counter([n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)]
                   + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def references(tree: ast.Module) -> set[str]:
    """Names read as a Name or as the attribute of an Attribute."""
    return set(reference_counts(tree))


def unused_private(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    used = set().union(*map(references, trees))
    return sorted({name for tree in trees for name in private_definitions(tree)} - used)


def test_unused_private_finds_dead_names():
    sources = ["_A = 1\n_B: int = 2\n__all__ = []\n\ndef _f():\n    return _A\n\n"
               "class _C:\n    pass\n",
               "import m\n\ndef g():\n    return m._f()\n"]
    assert unused_private(sources) == ["_B", "_C"]


def test_src_has_no_dead_private_code():
    """Every module-level private name of src/bihomlie is read somewhere in
    src/, so that removing its last caller also removes it."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert len(sources) > 1
    assert unused_private(sources) == []


# public names that nothing in src/, bench/ or the acceptance suite reads, with why they stay
KEPT_PUBLIC = {
    "is_ideal": "the ideal check that a checked proper ideal behind every "
                "'not simple' verdict will run (ROADMAP open item 9)",
    "loads_algebra": "the string form of fileio.load, which the parse-error tests call",
}


def reads(tree: ast.Module) -> set[str]:
    """references(tree) and the names that a from-import binds."""
    return references(tree) | {alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_public(defining: list[str], reading: list[str], named=frozenset()) -> list[str]:
    """Public module-level names of the defining sources that no defining or
    reading source reads and that are not in named."""
    trees = [ast.parse(source) for source in defining]
    used = set(named).union(*map(reads, trees + [ast.parse(source) for source in reading]))
    return sorted({name for tree in trees for name in definitions(tree)
                   if not name.startswith("_")} - used)


def traced_names(source: str) -> set[str]:
    """The strings in the FUNCTIONS table of bench/tracing.py, which names
    the functions that the traced run wraps."""
    table = next(node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    return {node.value for node in ast.walk(table)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_unused_public_finds_dead_names():
    defining = ["from .b import g\nX = 1\n_Y = 2\n\ndef f():\n    return X\n\n"
                "def h():\n    pass\n\nclass C:\n    pass\n",
                "def g():\n    pass\n\ndef k():\n    pass\n"]
    assert unused_public(defining, []) == ["C", "f", "h", "k"]
    assert unused_public(defining, ["import a\na.f(C)\n"], {"h"}) == ["k"]
    tracing = 'FUNCTIONS = {"a": ("f", "k")}\nOTHER = ("h",)\n'
    assert traced_names(tracing) == {"a", "f", "k"}


def outside_readers() -> list[str]:
    """The sources of bench/ and of the acceptance suite."""
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert len(bench) > 1
    return [path.read_text(encoding="utf-8")
            for path in bench + [ROOT / "tests" / "test_acceptance.py"]]


def test_src_has_no_public_name_that_nothing_reads():
    """Every public module-level name of src/bihomlie is read in src/, in
    bench/ (or named in the traced FUNCTIONS), or in tests/test_acceptance.py,
    but for the names kept in KEPT_PUBLIC."""
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    traced = traced_names((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    assert len(defining) > 1 and traced
    assert unused_public(defining, outside_readers(), traced) == sorted(KEPT_PUBLIC)


def unused_members(defining: list[str], reading: list[str]) -> list[str]:
    """Class.name of each public method and property of a module-level class
    in the defining sources that no reading source reads and no defining
    source reads outside the member's own definition. Dunders are exempt."""
    trees = [ast.parse(source) for source in defining]
    counts = sum(map(reference_counts, trees), Counter())
    read = set().union(*(references(ast.parse(source)) for source in reading))
    return sorted(f"{cls.name}.{node.name}" for tree in trees for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in read
                  and counts[node.name] == reference_counts(node)[node.name])


def test_unused_members_finds_dead_methods():
    defining = ["class A:\n    def __len__(self):\n        return 0\n\n"
                "    def f(self):\n        return self.f()\n\n"
                "    @property\n    def g(self):\n        return 1\n\n"
                "    def h(self):\n        return self.g\n\n"
                "    def _k(self):\n        pass\n"]
    assert unused_members(defining, ["a.h()\n"]) == ["A.f"]


def test_src_has_no_public_member_that_nothing_reads():
    """Every public method and property of a class of src/bihomlie is read in
    src/ outside its own definition, in bench/, or in tests/test_acceptance.py."""
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert len(defining) > 1
    assert unused_members(defining, outside_readers()) == []
