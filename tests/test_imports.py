"""Every name a qcrb module imports is read in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qcrb"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("import os.path\nfrom dataclasses import dataclass, field\n"
              "from . import errors as err\n\n@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == ["err", "field", "os"]


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_import(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
