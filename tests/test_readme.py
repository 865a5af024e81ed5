"""The README's API sketch runs as printed and finds its documented point;
the package exports its written list and its modules import in layers."""

import ast
import re
from pathlib import Path

import finetrop

README = Path(__file__).resolve().parent.parent / "README.md"


def test_api_sketch_finds_the_documented_fine_point():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(blocks[0], ns)
    points = [[(a.coef, a.level.coords) for a in pt.coords]
              for pt in ns["points"]]
    assert points == [[(2, (0,)), (-1, (0,))]]
    assert ns["components"] == []


def test_package_exports_exactly_its_written_list():
    # __all__ is written out: a star import binds it and nothing else,
    # every name in it resolves, and it holds every name the API sketch
    # imports from the package.
    ns: dict = {}
    exec("from finetrop import *", ns)
    assert set(ns) - {"__builtins__"} == set(finetrop.__all__)
    assert len(set(finetrop.__all__)) == len(finetrop.__all__)
    for name in finetrop.__all__:
        assert getattr(finetrop, name) is not None, name
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    sketch = re.findall(r"from finetrop import \((.*?)\)", block, re.S)
    names = {n.strip() for group in sketch for n in group.split(",")}
    assert "fine_intersect" in names
    assert names <= set(finetrop.__all__)


def _package_imports(node) -> list:
    """The package modules that ``node`` (an import statement) imports."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return ([node.module.split(".")[0]] if node.module else
                    [a.name for a in node.names])
        names = [node.module or ""]
    else:
        names = [a.name for a in node.names]
    return [n.split(".")[1] for n in names if n.startswith("finetrop.")]


def test_modules_import_at_the_top_without_cycles():
    # Every package import of src/finetrop/*.py (but __init__.py) is at the
    # top level of its module, and the modules import one another, at any
    # depth, without a cycle: no import is hidden in a function to break one.
    src = Path(finetrop.__file__).resolve().parent
    graph: dict = {}
    nested = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        top = {id(n) for n in tree.body}
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = _package_imports(node)
                graph[path.stem].update(mods)
                if mods and id(node) not in top:
                    nested.append(f"{path.name}:{node.lineno} {mods}")
    assert {"solve", "tropgeo", "fields"} <= set(graph)
    assert nested == []
    done: set = set()

    def visit(mod, path):
        assert mod not in path, f"import cycle {' -> '.join(path + [mod])}"
        if mod not in done:
            for dep in sorted(graph.get(mod, ())):
                visit(dep, path + [mod])
            done.add(mod)

    for mod in sorted(graph):
        visit(mod, [])
