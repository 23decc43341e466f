"""The documented examples run, and every public module lists what it defines.

The README python blocks and the doctests are executed; each module with
an __all__ must list exactly the public functions and classes it defines,
the library's public names must have a caller outside the tests, the
README module map must describe that API as it is, its command-line
section must name exactly the flags the parser accepts, every private
name the docs cite is defined, and every docstring section that the
package or README cites by name exists.
"""
from __future__ import annotations

import argparse
import ast
import doctest
import importlib
import inspect
import io
import pkgutil
import re
import tokenize
import types
from pathlib import Path

import pytest

import graphspectra
from graphspectra.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(graphspectra.__file__).parent
TESTS = Path(__file__).resolve().parent
MODULES = [module.name for module in pkgutil.iter_modules(graphspectra.__path__)]


def _readme_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_flags_match_the_parser():
    # a flag the parser dropped but the README still names, or one it gained
    # that the README does not name, shows here
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert named == accepted


def test_readme_python_blocks_run():
    blocks = _readme_blocks()
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


def _names_taken(source, name):
    """Names a source takes from graphspectra.<name>: by from-import, in the
    package or outside it, or as attributes of the module imported whole."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in {
            (name, 1),
            (f"graphspectra.{name}", 0),
        }:
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == name:
            taken.add(node.attr)
    return taken


def _attributes_read(source):
    """Attribute names a source reads or calls, on any object."""
    nodes = ast.walk(ast.parse(source))
    return {node.attr for node in nodes if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize(
    "name", ["bounds", "eigenfunctions", "graphs", "scattering", "solver", "stats"]
)
def test_public_names_have_a_caller_outside_the_tests(name):
    # a public name is taken by another package module or a README python
    # block, or is the class a taken function returns; a public property or
    # method of a class in __all__ is read by another package module, by its
    # own module or by a README python block: API that only the tests call
    # cannot come back unnoticed
    module = importlib.import_module(f"graphspectra.{name}")
    own = PACKAGE / f"{name}.py"
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py") if path != own]
    taken = set().union(*(_names_taken(src, name) for src in sources + _readme_blocks()))
    returned = {
        inspect.signature(getattr(module, entry)).return_annotation
        for entry in taken
        if inspect.isfunction(getattr(module, entry, None))
    }
    assert set(module.__all__) - taken - returned == set()
    read = set().union(
        *map(_attributes_read, sources + _readme_blocks() + [own.read_text(encoding="utf-8")])
    )
    members = {
        f"{entry}.{attr}"
        for entry in module.__all__
        if inspect.isclass(getattr(module, entry))
        for attr, obj in vars(getattr(module, entry)).items()
        if not attr.startswith("_")
        and isinstance(obj, (property, classmethod, staticmethod, types.FunctionType))
    }
    assert {member for member in members if member.split(".")[1] not in read} == set()


# a private name, not a subscript (||T||_F, (C a)_j), a path (bench/_work)
# or the tail of a primed symbol (f'_out)
PRIVATE = re.compile(r"(?<![\w'/.|)])_[A-Za-z]\w*")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node, clean=False) or ""


def _comments(source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [token.string for token in tokens if token.type == tokenize.COMMENT]


def _defined(tree):
    """Names a module binds: definitions, assignments, arguments, imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[0]


def test_private_names_cited_in_the_docs_are_defined():
    # a docstring, comment or README line that names a deleted helper
    # outlives it unnoticed otherwise
    assert PRIVATE.findall("sum f'_out(v), ||T||_F, see _pendant_layout.") == [
        "_pendant_layout"
    ]
    defined, cited = set(), {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        defined.update(_defined(tree))
        texts = list(_docstrings(tree))
        if path.parent == PACKAGE:
            texts += _comments(source)
        for name in PRIVATE.findall("\n".join(texts)):
            cited.setdefault(name, set()).add(path.name)
    for name in PRIVATE.findall(README.read_text(encoding="utf-8")):
        cited.setdefault(name, set()).add(README.name)
    assert {name: sorted(where) for name, where in cited.items() if name not in defined} == {}


# a docstring paragraph heading: "Name." opening a paragraph
HEADING = re.compile(r"(?:\A|\n[ \t]*\n)[ \t]*([A-Z][A-Za-z -]*)\.\s")
# quoted names, one or several joined by "and" or commas, cited as sections
# of a docstring: ("Polish" in its docstring), "Counting" and "Stars" in the
# module docstring, a comment's citation across lines included
SECTION_CITE = re.compile(
    r'((?:"[A-Z][A-Za-z -]*"(?:,? and |, ))*"[A-Z][A-Za-z -]*")\)? '
    r"in (?:the module|its|the \w+) docstring"
)


def _one_line(source):
    """source as one line: a line break, with the indent and comment mark
    that follow it, reads as one space."""
    return re.sub(r"\s*\n\s*(?:#\s*)?", " ", source)


def _cited_sections(source):
    """The docstring sections a source cites by name."""
    return [
        name
        for names in SECTION_CITE.findall(_one_line(source))
        for name in re.findall(r'"([^"]+)"', names)
    ]


def test_docstring_sections_cited_in_the_source_exist():
    # a section renamed or deleted in a module docstring leaves its citations,
    # in the package or in README, naming nothing otherwise
    headings = set()
    for name in MODULES:
        doc = importlib.import_module(f"graphspectra.{name}").__doc__ or ""
        headings.update(HEADING.findall(doc))
    assert {"Counting", "Polish", "Certification", "Stars", "Kernel vectors"} <= headings
    assert _cited_sections('# see ("A" and "B c"\n    # in its docstring)') == ["A", "B c"]
    assert _cited_sections('("No such paragraph" in the\neigenfunctions docstring)') == [
        "No such paragraph"
    ]
    cited = {}
    for path in sorted(PACKAGE.glob("*.py")) + [README]:
        for name in _cited_sections(path.read_text(encoding="utf-8")):
            cited.setdefault(name, set()).add(path.name)
    assert "README.md" in set().union(*cited.values())
    assert {name: sorted(where) for name, where in cited.items() if name not in headings} == {}
