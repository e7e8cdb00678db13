"""Import layering of the package, read from the sources with `ast`.

The decision layers (graphs, holonomy, repdecomp) depend only on each other
and on errors, not on the algebra, certification or matrix modules; Fraction
arithmetic lives in exactmat alone; and the polynomial and certification
layers, like holonomy, work without exactmat.
"""

import ast
from pathlib import Path

import pytest

import anosovgraph

SRC = Path(anosovgraph.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
DECISION_LAYERS = ("graphs", "holonomy", "repdecomp")


def imports(module):
    """(package modules, other top-level modules) that a module imports."""
    package, other = set(), set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                package.add(node.module.split(".")[0])
            else:  # from . import x
                package.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            top, _, rest = node.module.partition(".")
            if top == "anosovgraph" and rest:
                package.add(rest.split(".")[0])
            elif top == "anosovgraph":  # from anosovgraph import x
                package.update(alias.name for alias in node.names)
            else:
                other.add(top)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "anosovgraph":
                    package.add(rest.split(".")[0])
                else:
                    other.add(top)
    return package, other


def names_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_sources_found():
    assert {"exactmat", "graphs", "holonomy", "repdecomp", "hyperbolicity"} <= set(MODULES)


@pytest.mark.parametrize("module", DECISION_LAYERS)
def test_decision_layers_import_only_decision_layers(module):
    package, _ = imports(module)
    assert package <= {"errors", "graphs", "holonomy"}, package


@pytest.mark.parametrize("module", MODULES)
def test_only_exactmat_uses_fractions(module):
    _, other = imports(module)
    uses = "fractions" in other or "Fraction" in names_used(module)
    assert uses == (module == "exactmat")


@pytest.mark.parametrize("module", ["polynomials", "hyperbolicity", "holonomy"])
def test_no_exactmat_below_the_algebra(module):
    package, _ = imports(module)
    assert "exactmat" not in package
