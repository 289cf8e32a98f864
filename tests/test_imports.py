"""Every import in the package, and in the references the tests compare it
against, is used by the module that makes it, and every private module-level
name in the package is read somewhere in it."""

import ast
import pathlib

import pytest

import pombox

PACKAGE = sorted(pathlib.Path(pombox.__file__).parent.glob("*.py"))
SOURCES = PACKAGE + [pathlib.Path(__file__).with_name("references.py")]


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are re-exports, used by the package's users
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def _private_definitions(tree):
    """The module-level constants, functions and classes whose names start
    with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(tree):
    """Names read in the module, as variables or attributes; a function or
    class that only refers to itself is not read."""
    out = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    read = set().union(*map(_reads, trees.values()))
    unread = sorted((name, private) for name, tree in trees.items()
                    for private in _private_definitions(tree)
                    if private not in read)
    assert unread == []
