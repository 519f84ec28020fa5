"""Static checks on the package source: no private helper without a caller,
no public helper outside the package's exports without one, no public
method without one, and no import that is not used."""

import ast
import pathlib

from test_layers import load_layers

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weightfil"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _mentions(tree, skip):
    """Every name the tree mentions outside the nodes in skip: names,
    attributes, imported names and string constants (the CLI looks its
    loaders up by name)."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_private_definition_has_a_caller():
    uncalled = []
    for fname, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _private(node.name):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(node.name in _mentions(other, own) for other in MODULES.values()):
                uncalled.append(f"{fname}: {node.name}")
    assert uncalled == []


def test_every_unexported_public_definition_has_a_caller():
    exported = set(_mentions(MODULES["__init__.py"], set()))
    uncalled = []
    for fname, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _private(node.name) or node.name in exported:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(node.name in _mentions(other, own) for other in MODULES.values()):
                uncalled.append(f"{fname}: {node.name}")
    assert uncalled == []


def test_every_public_method_has_a_caller():
    # a method counts as called when any source file reads an attribute of
    # its name; the methods the benchmark traces by name count as well
    read = {node.attr for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    read |= {path.rsplit(".", 1)[-1] for _, _, path, _ in load_layers().TARGETS}
    uncalled = []
    for fname, tree in MODULES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_") and node.name not in read):
                    uncalled.append(f"{fname}: {cls.name}.{node.name}")
    assert uncalled == []


def test_no_unused_imports():
    unused = []
    for fname, tree in MODULES.items():
        if fname == "__init__.py":
            continue  # re-exports
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{fname}: {bound}")
    assert unused == []
