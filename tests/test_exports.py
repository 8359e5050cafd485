"""No dead exports: every name in dsalpha.__all__ is used by the package's
own modules, imported by the acceptance suite or called by the benchmark."""

import ast
from pathlib import Path

import dsalpha

ROOT = Path(__file__).resolve().parent.parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(path):
    return {
        node.id
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _names_imported_from_dsalpha(path):
    return {
        alias.name
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module == "dsalpha"
        for alias in node.names
    }


def _dsalpha_attributes(path):
    return {
        node.attr
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "dsalpha"
    }


def test_every_export_is_used():
    used = set()
    for path in sorted((ROOT / "src" / "dsalpha").glob("*.py")):
        if path.name != "__init__.py":
            used |= _loaded_names(path)
    used |= _names_imported_from_dsalpha(ROOT / "tests" / "test_acceptance.py")
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= _dsalpha_attributes(path)
    assert sorted(set(dsalpha.__all__) - used) == []
