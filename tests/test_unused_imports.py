"""Every name a noclock module imports is read somewhere in that module.

Each module under src/noclock is parsed with `ast`; an imported name is read
if it is loaded anywhere in the module, annotations included.  `from
__future__` imports are compiler directives, not names, and a name the
module lists in `__all__` is a re-export, read by the package's users.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "noclock")


def _exported(tree) -> set:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in node.value.elts}


def unused_imports(tree) -> list:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = _exported(tree)
    return [name for name in imported
            if name not in loaded and name not in exported]


def test_every_imported_name_is_read():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                tree = ast.parse(fh.read())
            found += [(fname, name) for name in unused_imports(tree)]
    assert found == []


def test_the_probe_counts_annotations_attributes_and_exports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import List, Optional\n"
        "from .a import b, c as e, g\n"
        "__all__ = ['g']\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return os.path.join(b)\n")
    assert unused_imports(tree) == ["j", "List", "e"]
