"""The yes sweep from 17 to 24 points, the 64-point structured seed, two
orbits on 48 and 64 points beside or joined to a triangle, and paper families
beyond the tier-1 sample certified at margin 2 in one assembly and rendered
as text and as JSON that parses back: family I with m = 4 and sizes in
{2, 3}^3 x {3}, and I-modified with m = 7, whose 26,766-bit coefficients
pass the 4300 digits that ``str()`` of an int allows by default.

These extend `test_witness.TestCycleTypeEnumeration` (every yes cycle type on
one discrete or complete component of at most 16 points),
`test_cli.TestCertifiedSeedsAboveTwelvePoints`,
`test_witness.TestMultiOrbitAboveTwelvePoints` and
`test_witness.TestFamilyRegression`. They take about five minutes on two
CPUs, so the tier-1 run, which collects only test_*.py files, leaves them
out. Run them with

    PYTHONPATH=src python -m pytest -q tests/sweep_witnesses.py
"""

import itertools
import json
import sys

import pytest

from anosovgraph.analysis import _json_text, analyze
from anosovgraph.families import family_I, family_I_modified
from anosovgraph.graphs import VertexPermutation, discrete_graph

from test_witness import (
    discrete_beside_triangle,
    two_orbit_exponents,
    witness_every_cycle_type,
    witness_in_one_assembly,
)

# yes instances per number of points, the trivial generator included
YES = {17: 124, 18: 166, 19: 204, 20: 261, 21: 327, 22: 415, 23: 509, 24: 650}


@pytest.mark.parametrize("n", sorted(YES))
def test_every_yes_cycle_type_gets_a_witness(n):
    assert witness_every_cycle_type([n]) == YES[n]


def test_discrete_64_with_two_transpositions():
    # the float bounds of the 64-point structured seed come out NaN; one orbit takes exponent 1
    graph = discrete_graph(64)
    report = analyze(graph, [VertexPermutation.from_cycles("(v1 v2)(v3 v4)", graph.vertices)], want_witness=True)
    assert report.witness is not None, report.witness_error
    assert report.witness.certificate.valid
    assert [p.exponent for p in report.witness.plan] == [1]


@pytest.mark.parametrize("n", [48, 64])
@pytest.mark.parametrize("joined", [False, True], ids=["beside", "joined"])
def test_two_orbits_whose_bounds_overflow(n, joined):
    # the float bounds cannot steer the second exponent; both orbits take 1
    assert two_orbit_exponents(discrete_beside_triangle(n, joined)) == (1, 1)


def assert_renders(w):
    """Both witness reports print, and the JSON parses back to the certificate's ints;
    the interpreter's digit limit on int text is back in place afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit before 3.10.7
    before = limit()
    text, rendered = w.to_text(), _json_text(w.to_json_dict())
    assert limit() == before
    assert "characteristic polynomial on V+W: " in text
    if before:
        sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(rendered)
    finally:
        if before:
            sys.set_int_max_str_digits(before)
    assert payload["full_char_poly"] == list(w.certificate.char_poly.coefficients)


@pytest.mark.parametrize("sizes", [(*head, 3) for head in itertools.product((2, 3), repeat=3)], ids=str)
def test_family_I_m4_certifies_in_one_assembly(sizes):
    assert_renders(witness_in_one_assembly(family_I(4, sizes)))


def test_family_I_modified_m7_certifies_in_one_assembly():
    assert_renders(witness_in_one_assembly(family_I_modified(7)))
