"""The benchmark's workloads call the package only through names that
exist: an API cleanup that drops or renames one fails here, not in the
benchmark run."""

import ast
from pathlib import Path

import pytest

import trisect
import trisect.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def called_names(module_alias):
    """Every attribute read off ``module_alias`` in bench/workloads.py."""
    tree = ast.parse(WORKLOADS.read_text())
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == module_alias})


def test_workloads_use_the_package():
    assert called_names("ts")
    assert called_names("cli")


@pytest.mark.parametrize("name", called_names("ts"))
def test_package_exports(name):
    assert hasattr(trisect, name)


@pytest.mark.parametrize("name", called_names("cli"))
def test_cli_exports(name):
    assert hasattr(trisect.cli, name)
