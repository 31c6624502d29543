"""Every name that a `chatelet` module lists in ``__all__`` exists, so a
deletion cannot leave a stale export behind; no module keeps an import
or a private name that nothing reads, so a deletion cannot leave dead
code behind either; and no ``except`` names a class that another of its
classes already catches."""

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

import pytest

import chatelet

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(chatelet.__path__, "chatelet."))


def test_modules_with_exports_are_found():
    exporting = [name for name in MODULES
                 if hasattr(importlib.import_module(name), "__all__")]
    assert {"chatelet.bundle", "chatelet.local", "chatelet.quartic",
            "chatelet.surface"} <= set(exporting)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []


SRC = Path(chatelet.__file__).parent
TREES = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
         for path in sorted(SRC.rglob("*.py"))}


def _loaded(tree) -> set[str]:
    """The names that a module reads: loaded names, attributes, and the
    names it imports from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _exports(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(TREES))
def test_every_import_is_read(path):
    # an import that only a deleted function used is dead code
    tree = TREES[path]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exports(tree)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    assert [name for name in bound if name not in read] == []


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_name_is_read():
    # a private function, class or constant that nothing reads is dead
    read = set().union(*map(_loaded, TREES.values()))
    unread = [(path, name) for path, tree in TREES.items()
              for name in _top_level_names(tree)
              if name.startswith("_") and not name.startswith("__")
              and name not in read]
    assert unread == []


def test_no_private_import_across_modules():
    # a private name is its module's own: another module that needs it
    # needs a documented public one
    imported = [(path, node.module, alias.name)
                for path, tree in TREES.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "chatelet"
                for alias in node.names
                if alias.name.startswith("_")
                and not alias.name.startswith("__")]
    assert imported == []


def _module_name(path: str) -> str:
    parts = ["chatelet", *path[:-len(".py")].split("/")]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _resolve(node, namespace):
    """The object that a name or a dotted name denotes in a module."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr)
    if node.id in namespace:
        return namespace[node.id]
    return getattr(builtins, node.id)


def test_no_except_tuple_names_a_class_with_its_base():
    # (SubError, BaseError) catches what BaseError alone catches, so the
    # subclass is dead code that reads as if it were handled apart
    redundant = []
    for path, tree in TREES.items():
        namespace = vars(importlib.import_module(_module_name(path)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and isinstance(
                    node.type, ast.Tuple):
                classes = [_resolve(e, namespace) for e in node.type.elts]
                if any(a is not b and issubclass(a, b)
                       for a in classes for b in classes):
                    redundant.append((path, node.lineno))
    assert redundant == []
