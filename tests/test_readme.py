"""The README's API sketch runs as printed and finds its documented point."""

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
