"""README.md's example, run as written: its one python block must segment
its two discs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    result, mask, truth = names["result"], names["mask"], names["truth"]
    assert result.stop_reason == "converged"
    assert (mask & truth).sum() / (mask | truth).sum() > 0.95
    assert len(result.contour) >= 1
