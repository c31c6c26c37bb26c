"""The README's Python examples run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_blocks() -> list:
    with open(README, encoding="utf-8") as f:
        return re.findall(r"^```python\n(.*?)^```$", f.read(), re.M | re.S)


def test_the_readme_has_python_examples():
    assert _python_blocks()


@pytest.mark.parametrize("block", _python_blocks())
def test_readme_python_block_runs(block):
    exec(compile(block, README, "exec"), {})
