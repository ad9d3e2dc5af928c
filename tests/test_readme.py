"""The README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """Each python block of the README runs, in order and in one
    namespace, so its imports and calls name real library functions."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
