"""No code that nothing calls: every definition of the package is used.

A private definition is a top-level function or class, or a method, whose
name starts with one underscore.  It counts as used when its name occurs as
a name or an attribute somewhere in `src/superh` outside its own body, so a
helper that only calls itself, or that only tests call, fails here.

A public top-level function or class counts as used when it is referenced
the same way, when `superh/__init__.py` exports it, when it is a `cmd_*`
that `cli.main` dispatches by the name of a subcommand, or when it is one of
the runners in BENCH_RUNNERS, which the benchmark's own tests call by name.
A public method of a class of the package counts as used when its name
occurs the same way outside its own body; the check is by name, so a method
that shares its name with a used one passes.  Code that only the tests call
(a second construction to compare against, or a helper such as a JSON form)
belongs in `tests/reference.py`, as a function, not in the package.
"""

import argparse
import ast
from pathlib import Path

import superh
from superh import cli

SRC = Path(superh.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
# a suite that `check` does not list, kept because bench/test_bench.py traces
# `checks.suite_dims` by name (acceptance criterion 03 runs it too)
BENCH_RUNNERS = {"suite_dims"}


def _methods(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, DEFINITIONS))


def _private_definitions(tree: ast.Module):
    for item in [*tree.body, *_methods(tree)]:
        if (isinstance(item, DEFINITIONS) and item.name.startswith("_")
                and not item.name.endswith("__")):
            yield item


def _trees_and_uses():
    """The parsed modules, and (module, line) of every use of each name in them."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(used, []).append((name, node.lineno))
    return trees, uses


def _used_elsewhere(node, module: str, uses) -> bool:
    inside = range(node.lineno, node.end_lineno + 1)
    return any(where != module or line not in inside
               for where, line in uses.get(node.name, []))


def test_every_private_definition_is_referenced_elsewhere():
    trees, uses = _trees_and_uses()
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in _private_definitions(tree)
              if not _used_elsewhere(node, name, uses)]
    assert not unused, unused


def _dispatched_commands() -> set[str]:
    """cmd_<name> for every subcommand of the parser that cli.main dispatches by."""
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return {f"cmd_{name}" for name in action.choices}


def test_every_public_definition_is_used_or_exported():
    trees, uses = _trees_and_uses()
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, DEFINITIONS) or node.name.startswith("_")
                    or node.name in exported or node.name in BENCH_RUNNERS
                    or (name == "cli.py" and node.name in _dispatched_commands())):
                continue
            if not _used_elsewhere(node, name, uses):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, unused


def test_every_public_method_is_used():
    trees, uses = _trees_and_uses()
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in _methods(tree)
              if not node.name.startswith("_") and not _used_elsewhere(node, name, uses)]
    assert not unused, unused
