"""The benchmark's workloads call the package only through names that
exist: an API cleanup that drops or renames one fails here, not in the
benchmark run.  The README's tolerance table quotes the constants the
package applies."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import trisect
import trisect.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def tolerance_rows():
    """(value, constant) cells of the README table headed
    | tolerance | value | constant | CLI override |."""
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line.replace(" ", "") == "|tolerance|value|constant|CLIoverride|":
            break
    next(lines)  # the | --- | rule
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        # a cell's own | is written \|
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        rows.append((cells[1], cells[2]))
    return rows


def test_readme_tolerances_match_constants():
    """Each row whose constant cell names one module.NAME opens its value
    cell with that constant's value."""
    checked = 0
    for value, constant in tolerance_rows():
        names = re.findall(r"`(\w+)\.(\w+)`", constant)
        if len(names) != 1:
            continue
        (module, name), = names
        number = re.search(r"[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?", value)
        assert float(number.group()) == getattr(
            importlib.import_module("trisect." + module), name), constant
        checked += 1
    assert checked


TAU2 = [[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]]
POINT = [0.1 + 0.05j, -0.2 + 0.1j]

#: every public entry point that takes points of C^g, called with one
#: point replaced
TAKES_POINTS = {
    "theta_batch": lambda z: trisect.theta_batch(TAU2, z),
    "second_order_basis": lambda z: trisect.second_order_basis(TAU2, z),
    "RiemannMatrix.reduce": lambda z: trisect.RiemannMatrix(TAU2).reduce(z),
    "kummer_map": lambda z: trisect.kummer_map(TAU2, z),
    "on_theta": lambda z: trisect.on_theta(TAU2, z),
    "gauss_map": lambda z: trisect.gauss_map(TAU2, z),
    "vanishing_order": lambda z: trisect.vanishing_order(TAU2, z),
    "certify_secant": lambda z: trisect.certify_secant(TAU2,
                                                       [POINT, POINT, z]),
    "gamma00_combination": lambda z: trisect.gamma00_combination(
        TAU2, POINT, z),
    "trisecant_gamma00_test": lambda z: trisect.trisecant_gamma00_test(
        TAU2, POINT, POINT, z),
}


@pytest.mark.parametrize("point", [[0.1], [0.1, 0.2, 0.3], ["0.1x", 0.2],
                                   [{}, 0.2], [[0.1, 0.2], [0.3]]],
                         ids=["short", "long", "string", "object", "ragged"])
@pytest.mark.parametrize("name", sorted(TAKES_POINTS))
def test_points_of_another_length_or_not_numbers_are_invalid(name, point):
    """A point of the wrong length, or with an entry that is not a number,
    is refused with InvalidInput, not an error from numpy."""
    with pytest.raises(trisect.InvalidInput):
        TAKES_POINTS[name](point)
