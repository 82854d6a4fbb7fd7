"""The package's imports are all at the top of its modules, bar the lazy ones,
and no two modules import each other, directly or around a cycle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src/surfmimo"

# Imports a function may make: PyYAML, loaded only by a command that reads a
# YAML file, and the SHA-256 resolver, which tries the built-in modules first.
LAZY = {"yaml": None, "_sha2": "_sha256", "_sha256": "_sha256", "hashlib": "_sha256"}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _imported(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    return ["." + (node.module or alias.name) for alias in node.names]


def test_no_module_imports_inside_a_function_but_the_lazy_ones():
    inside = []
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for name in _imported(node):
                        if name not in LAZY or LAZY[name] not in (None, fn.name):
                            inside.append(f"{module}.{fn.name}: {name}")
    assert inside == []


def _graph() -> dict:
    """module -> the package modules it imports; ``from . import __version__``
    reads the package itself, which is no module of the graph."""
    trees = _trees()
    modules = set(trees) - {"__init__"}
    graph = {}
    for module in modules:
        deps = set()
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                deps |= {name.split(".")[0] for name in names} & modules
        graph[module] = deps
    return graph


def test_the_module_imports_form_no_cycle():
    graph = _graph()
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(f"import cycle: {' -> '.join(path + [module])}")
        if module not in done:
            path.append(module)
            for dep in sorted(graph[module]):
                visit(dep)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    # the shipped presets are a leaf below the channel engine
    assert graph["presets"] == {"errors", "mimo", "propagation"}
