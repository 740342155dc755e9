"""Every top-level function of berlab is used by berlab, or is public.

A function that only tests call is dead weight in the package: this scan
finds any top-level function that no module of ``src/berlab`` names outside
its own body, that ``berlab.__all__`` does not export, and that is not the
console entry point ``cli.main``.
"""

import ast
from collections import Counter
from pathlib import Path

import berlab

SRC = Path(__file__).resolve().parent.parent / "src" / "berlab"
ENTRY_POINTS = {("cli", "main")}


def _names(node):
    """How often each name is read in ``node``, as a variable or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_functions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return [(module, fn.name) for module, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            and used[fn.name] == _names(fn)[fn.name]  # named only by itself
            and fn.name not in berlab.__all__ and (module, fn.name) not in ENTRY_POINTS]


def test_every_function_is_used_or_exported():
    assert unused_functions() == []
