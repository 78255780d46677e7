"""Static checks on the package source, with the standard-library ``ast``:
no unused imports, an ``__all__`` that resolves, and no module-level
function or class that nothing names."""

import ast
import re
from collections import Counter
from pathlib import Path

import offloadsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "offloadsim"
MODULES = sorted(PACKAGE.glob("*.py"))
WORD = re.compile(r"\w+")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The names listed in a module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """``(line, name)`` for every name an import binds in ``path`` that no
    expression of the module reads and ``__all__`` does not export."""
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path) for path in MODULES}
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_import_finder_flags_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import floor as fl, ceil\n"
        "__all__ = ['ceil']\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, fl(1.5)\n"
    )
    assert unused_imports(module) == [(2, "sys"), (6, "json")]


def test_every_exported_name_resolves():
    missing = [name for name in offloadsim.__all__ if not hasattr(offloadsim, name)]
    assert missing == []
    assert len(set(offloadsim.__all__)) == len(offloadsim.__all__)


def _corpus_files():
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield from sorted((ROOT / "tests").rglob("*.py"))
    yield from sorted((ROOT / "perfbench").rglob("*.py"))
    yield ROOT / "README.md"


def unnamed_definitions():
    """``module.name`` for every module-level function or class of the
    package whose name appears nowhere in the sources, tests, benchmark or
    README outside its own definition."""
    words = Counter()
    for path in _corpus_files():
        words.update(WORD.findall(path.read_text(encoding="utf-8")))
    unnamed = []
    for path in MODULES:
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # decorators and the body count as the definition
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = WORD.findall("\n".join(lines[first - 1 : node.end_lineno]))
                if words[node.name] == own.count(node.name):
                    unnamed.append(f"{path.stem}.{node.name}")
    return unnamed


def test_every_module_level_definition_is_named_elsewhere():
    assert unnamed_definitions() == []
