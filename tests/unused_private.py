"""Check that every private module-level helper in ``src/bpadams`` is used.

A private definition is a module-level ``def`` or ``class`` whose name
starts with one underscore and is not a dunder.  It counts as used when
some ``Name`` or ``Attribute`` node, or some imported name, anywhere in
``src/`` names it outside its own body; a mention in a docstring or a
comment does not count, nor does a recursive call.  Standard library
only.  pytest does not collect this file.  Run it as
``python tests/unused_private.py``; it exits 1 if a private definition is
named nowhere.  ``tests/test_records.py`` runs it in tier-1.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "bpadams"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _names(node: ast.AST) -> Counter:
    """How often each name is used under ``node`` by a Name, an Attribute
    or an import."""
    found: Counter = Counter()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            found[current.id] += 1
        elif isinstance(current, ast.Attribute):
            found[current.attr] += 1
        elif isinstance(current, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in current.names)
    return found


def scan() -> tuple[list[str], list[str]]:
    """(every private definition, the ones named nowhere outside their own
    body), each as ``module.name``."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    defined, orphans = [], []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and _private(node.name)):
                label = f"{path.stem}.{node.name}"
                defined.append(label)
                if used[node.name] == _names(node)[node.name]:
                    orphans.append(label)
    return defined, orphans


def main() -> int:
    defined, orphans = scan()
    if orphans:
        print(f"private definitions named nowhere in src/: {', '.join(orphans)}")
        return 1
    print(f"all {len(defined)} private module-level definitions in src/bpadams are used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
