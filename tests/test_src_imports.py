"""Every name imported in a module of src/bihomlie is used in that module.

The package's __init__.py imports in order to re-export, and
`from __future__ import annotations` is a compiler directive, so both are
exempt. Plain stdlib `ast`: a name counts as used when it appears as a Name
node, or inside a string annotation."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bihomlie"


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
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
