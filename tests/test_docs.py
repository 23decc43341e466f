"""The documented examples run, and every public module lists what it defines.

The README python blocks and the doctests are executed; each module with
an __all__ must list exactly the public functions and classes it defines,
and the README module map must describe that API as it is.
"""
from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import graphspectra

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [module.name for module in pkgutil.iter_modules(graphspectra.__path__)]


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_package_doctests_pass():
    result = doctest.testmod(graphspectra)
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize(
    "name",
    [
        module.name
        for module in pkgutil.iter_modules(graphspectra.__path__)
        if hasattr(importlib.import_module(f"graphspectra.{module.name}"), "__all__")
    ],
)
def test_module_all_lists_its_public_definitions(name):
    module = importlib.import_module(f"graphspectra.{name}")
    listed = set(module.__all__)
    assert not {entry for entry in listed if not hasattr(module, entry)}
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - listed == set()


@pytest.mark.parametrize("name", MODULES)
def test_module_map_row_matches_the_module(name):
    readme = README.read_text(encoding="utf-8")
    row = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M))[name]
    module = importlib.import_module(f"graphspectra.{name}")
    functions = [
        entry for entry in getattr(module, "__all__", ())
        if inspect.isfunction(getattr(module, entry))
    ]
    assert [f for f in functions if not re.search(rf"`{f}[`(]", row)] == []
    # a call written in the row names a function of the module, and the
    # arguments it shows are that function's leading parameters
    for fn, args in re.findall(r"`(\w+)\(([^`]*)\)`", row):
        assert callable(getattr(module, fn, None)), fn
        written = [arg.strip() for arg in args.split(",") if arg.strip()]
        params = list(inspect.signature(getattr(module, fn)).parameters)
        assert written == params[: len(written)], (fn, written, params)
