"""The README's API sketch runs as printed and finds its documented point."""

import re
from pathlib import Path

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
