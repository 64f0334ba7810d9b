"""Source hygiene checks that need no linter."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tilekit").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; names listed in __all__
    count as read, and __future__ imports are skipped."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # an empty glob would pass vacuously
    assert {"graphs.py", "cli.py", "_oracles.py"} <= {p.name for p in SOURCES}
    unused = {}
    for path in SOURCES:
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[str(path.relative_to(ROOT))] = found
    assert not unused, f"imported but never used: {unused}"


def _calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def test_harness_builds_records_only_in_record():
    # one verdict rule: every suite record goes through harness._record
    tree = ast.parse((ROOT / "src" / "tilekit" / "harness.py").read_text(encoding="utf-8"))
    (rule,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_record"
    ]
    inside = _calls_to(rule, "InstanceRecord")
    assert inside
    assert len(_calls_to(tree, "InstanceRecord")) == len(inside)


def _names(node: ast.AST) -> Counter:
    """Every name read or written under node, attribute names included."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_private_definition_is_named_elsewhere():
    # a private top-level function or class that nothing in the package names
    # outside its own body is a leftover
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "tilekit").glob("*.py"))
    }
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unnamed = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and named[node.name] == _names(node)[node.name]
    ]
    assert len(trees) >= 8
    assert not unnamed, f"private and never named outside its definition: {unnamed}"
