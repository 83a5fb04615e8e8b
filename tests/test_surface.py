"""Every public name of the package is used by the package itself: a name in
a module's ``__all__``, or re-exported by ``ltadmm/__init__``, that no other
module of ``src/ltadmm`` loads belongs in the tests."""

import ast
from pathlib import Path

import ltadmm

PACKAGE = Path(ltadmm.__file__).resolve().parent


def test_every_public_name_is_loaded_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unused += [f"{name}:{v}" for v in ast.literal_eval(node.value) if v not in loaded]
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            unused += [f"__init__.py:{alias.name}" for alias in node.names if alias.name not in loaded]
    assert not unused
