"""The README cannot drift from the code: its CLI examples parse, the flags
and the dotted names it cites exist, and its Layout table lists each module
of the package once."""

import argparse
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import tvsource
from tvsource.cli import build_parser

README = (Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.M | re.S)
MODULES = sorted(m.name for m in pkgutil.iter_modules(tvsource.__path__))


def cli_examples():
    """Every ``tvsource`` command line of the README's ``sh`` blocks."""
    return [line.strip() for lang, body in FENCE.findall(README)
            if lang == "sh" for line in body.splitlines()
            if line.strip().startswith("tvsource ")]


def prose():
    """The README without its fenced blocks."""
    return FENCE.sub("", README)


def option_strings():
    """Every option string of every ``tvsource`` subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {o for p in sub.choices.values() for a in p._actions
            for o in a.option_strings}


def test_every_cli_example_parses():
    examples = cli_examples()
    assert examples
    for line in examples:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_every_flag_in_the_prose_is_an_option():
    flags = set(re.findall(r"`(--[\w-]+)[^`]*`", prose()))
    assert flags
    assert sorted(flags - option_strings()) == []


def has_attribute(obj, name: str) -> bool:
    """Whether ``obj`` has the attribute ``name``; of a class, also a
    dataclass field or an instance attribute its source names on self."""
    return hasattr(obj, name) or isinstance(obj, type) and bool(
        name in getattr(obj, "__dataclass_fields__", {})
        or re.search(rf"\bself\.{name}\b", inspect.getsource(obj)))


def test_every_dotted_name_resolves():
    # a name whose first part is a package module, or a class defined in
    # one, must resolve attribute by attribute
    roots = {name: importlib.import_module(f"tvsource.{name}")
             for name in MODULES}
    for module in list(roots.values()):
        roots.update({name: obj for name, obj in vars(module).items()
                      if isinstance(obj, type)
                      and obj.__module__ == module.__name__})
    names = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
    cited = [n for n in names if n.split(".")[0] in roots]
    assert cited
    for name in cited:
        obj = roots[name.split(".")[0]]
        for part in name.split(".")[1:]:
            assert has_attribute(obj, part), f"README cites `{name}`"
            obj = getattr(obj, part, None)


def test_layout_lists_each_module_once():
    layout = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", layout, re.M)
    assert sorted(rows) == MODULES
