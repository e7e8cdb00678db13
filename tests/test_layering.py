"""Import layering of the package, read from the sources with `ast`.

The package imports nothing outside the standard library. The decision
layers (graphs, holonomy, repdecomp) depend only on each other and on
errors, not on the algebra, certification or matrix modules; Fraction
arithmetic lives in exactmat alone; the polynomial and certification
layers, like holonomy, work without exactmat; and the underscore slots of
the graphs classes are read only inside graphs. Cancellation reaches the
kernels through the active token alone: no function takes a `cancel`
parameter, and only errors, which defines `checkpoint`, touches
contextvars. It also pins the stored fields of the result records, which
keep no copy of a derivable value.
"""

import ast
import dataclasses
import importlib
import sys
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


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def names_used(module):
    return {node.id for node in ast.walk(parse(module)) if isinstance(node, ast.Name)}


def private_slots(module):
    """Underscore names in the `__slots__` of the module's classes."""
    names = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(e.value for e in node.value.elts if e.value.startswith("_"))
    return names


def test_sources_found():
    assert {"exactmat", "graphs", "holonomy", "repdecomp", "hyperbolicity"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_only_standard_library_imports(module):
    _, other = imports(module)
    assert other <= sys.stdlib_module_names, other - sys.stdlib_module_names


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


@pytest.mark.parametrize("module", [m for m in MODULES if m != "graphs"])
def test_graphs_private_slots_read_only_in_graphs(module):
    private = private_slots("graphs")
    assert {"_images", "_index"} <= private
    read = {node.attr for node in ast.walk(parse(module)) if isinstance(node, ast.Attribute)}
    assert not read & private, read & private


def parameter_names(module):
    names = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names.update(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs)
            names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_cancel_parameter(module):
    assert "cancel" not in parameter_names(module)


@pytest.mark.parametrize("module", MODULES)
def test_only_errors_uses_contextvars(module):
    _, other = imports(module)
    assert ("contextvars" in other) == (module == "errors")


def test_checkpoint_is_defined_in_errors():
    def defines_checkpoint(module):
        return any(
            isinstance(node, ast.FunctionDef) and node.name == "checkpoint" for node in ast.walk(parse(module))
        )

    assert [m for m in MODULES if defines_checkpoint(m)] == ["errors"]


# A value the other fields give is a read-only property of the record, not a
# stored copy that nothing checks against them.
STORED_FIELDS = {
    ("analysis", "AnalysisReport"): ("action", "witness", "witness_error", "timing"),
    ("holonomy", "OrbitData"): ("rep", "c", "stabilizer", "conjugators"),
    ("holonomy", "StabilizerInfo"): ("order", "generator", "restriction"),
    ("hyperbolicity", "HyperbolicityCertificate"): ("level", "stages"),
    ("hyperbolicity", "UnitCircleAnalysis"): (
        "root_at_one",
        "root_at_minus_one",
        "reciprocal_gcd_degree",
        "sturm_root_count",
    ),
    ("repdecomp", "Decision"): ("orbits", "realizability"),
    ("repdecomp", "OrbitVerdict"): ("orbit", "parts"),
    ("repdecomp", "RepPart"): ("divisor", "multiplicity"),
    ("witness", "OrbitSeedPlan"): ("orbit", "seed", "exponent"),
    ("witness", "Witness"): ("full_matrix", "certificate", "commutes_with", "plan"),
}


@pytest.mark.parametrize("module, record", sorted(STORED_FIELDS))
def test_result_records_store_only_underived_fields(module, record):
    cls = getattr(importlib.import_module(f"anosovgraph.{module}"), record)
    assert tuple(f.name for f in dataclasses.fields(cls)) == STORED_FIELDS[module, record]
