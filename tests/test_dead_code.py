"""No code that nothing calls: every private definition of the package is used.

A private definition is a top-level function or class, or a method, whose
name starts with one underscore.  It counts as used when its name occurs as
a name or an attribute somewhere in `src/superh` outside its own body, so a
helper that only calls itself, or that only tests call, fails here.
"""

import ast
from pathlib import Path

import superh

SRC = Path(superh.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if (isinstance(item, DEFINITIONS) and item.name.startswith("_")
                    and not item.name.endswith("__")):
                yield item


def test_every_private_definition_is_referenced_elsewhere():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(used, []).append((name, node.lineno))
    unused = []
    for name, tree in trees.items():
        for node in _private_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(where != name or line not in inside
                       for where, line in uses.get(node.name, [])):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, unused

