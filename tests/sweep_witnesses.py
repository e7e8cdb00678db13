"""The yes sweep from 17 to 24 points, the 64-point structured seed, and two
orbits on 48 and 64 points beside or joined to a triangle.

These extend `test_witness.TestCycleTypeEnumeration` (every yes cycle type on
one discrete or complete component of at most 16 points),
`test_cli.TestCertifiedSeedsAboveTwelvePoints` and
`test_witness.TestMultiOrbitAboveTwelvePoints`. They take about five minutes
on two CPUs, so the tier-1 run, which collects only test_*.py files, leaves
them out. Run them with

    PYTHONPATH=src python -m pytest -q tests/sweep_witnesses.py
"""

import pytest

from anosovgraph.analysis import analyze
from anosovgraph.graphs import VertexPermutation, discrete_graph

from test_witness import discrete_beside_triangle, two_orbit_exponents, witness_every_cycle_type

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
