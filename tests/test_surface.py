"""Every name of the package is used by the package itself: a name in a
module's ``__all__``, a name re-exported by ``ltadmm/__init__`` or a
module-level function or class that no module of ``src/ltadmm`` other than
``__init__`` loads belongs in the tests.  The functions that the
benchmark's span tracer wraps by name are exempt from the last check."""

import ast
import importlib.util
from pathlib import Path

import ltadmm

PACKAGE = Path(ltadmm.__file__).resolve().parent
TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def loaded_names(trees):
    """Every name and attribute that a module other than ``__init__`` loads."""
    loaded = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _ in module.TARGETS}


def test_every_public_name_is_loaded_by_the_package():
    trees = package_trees()
    loaded = loaded_names(trees)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unused += [f"{name}:{v}" for v in ast.literal_eval(node.value) if v not in loaded]
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            unused += [f"__init__.py:{alias.name}" for alias in node.names if alias.name not in loaded]
    assert not unused


def test_every_function_and_class_is_loaded_by_the_package():
    trees = package_trees()
    used = loaded_names(trees) | traced_names()
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert not unused
