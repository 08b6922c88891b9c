"""Every public name of the package is used by the package, its scripts or
its benchmark: a function, class or constant that only tests reach is
either private or gone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modvar").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + [
    path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")
]


def _is_criterion(node):
    # a check registered with @criterion(...) is reached through verify.CRITERIA
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "criterion"
        for d in node.decorator_list
    )


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_criterion(node):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_is_used_outside_the_tests():
    used = {name for path in USERS for name in _references(ast.parse(path.read_text()))}
    unused = [
        "%s.%s" % (path.stem, name)
        for path in PACKAGE
        for name in _public_names(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in used
    ]
    assert unused == []
