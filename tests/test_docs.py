"""The documented examples run: the README python blocks and the doctests."""
from __future__ import annotations

import doctest
import re
from pathlib import Path

import graphspectra

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_package_doctests_pass():
    result = doctest.testmod(graphspectra)
    assert result.attempted > 0 and result.failed == 0
