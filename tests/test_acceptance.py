"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from anosovgraph.cli import main as cli_main
from anosovgraph.exactmat import RationalMatrix
from anosovgraph.families import family_I, family_I_modified, family_II, family_II_z4
from anosovgraph.fixtures import (
    all_loops_chain,
    four_pair_chain,
    four_pair_chain_swap,
    loop_end_chain,
    pentagon,
)
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    discrete_graph,
    induced_component_permutation,
    is_graph_automorphism,
)
from anosovgraph.holonomy import build_action
from anosovgraph.hyperbolicity import (
    char_poly,
    exterior_square_char_poly,
    is_integer_like,
    unit_circle_analysis,
)
from anosovgraph.liealg import extend_to_algebra, is_algebra_automorphism
from anosovgraph.polynomials import IntPolynomial, companion_rows, cyclotomic
from anosovgraph.repdecomp import decide, trivial_holonomy_check
from anosovgraph.witness import assemble_witness, build_witness
from anosovgraph.errors import WitnessRefused
from tests_support_oracles import component_order_group, permutation_matrix, preserves_prec


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def action_for(graph, *cycle_strings):
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    return build_action(coherent_components(graph), gens)


def test_criterion_1_reference_fixtures():
    with criterion(1, "reference fixtures: partitions, orders, symmetry groups, orbits"):
        # chain with one looped end
        t0 = time.monotonic()
        part = coherent_components(loop_end_chain())
        assert sorted(part.component_sizes()) == [2, 2, 3]
        assert part.order_pairs == {(0, 1)}  # pair component below the triple
        assert part.component_sizes()[1] == 3
        assert part.loops == (False, True, False)
        assert time.monotonic() - t0 < 1.0

        # chain with all components complete
        t0 = time.monotonic()
        g2 = all_loops_chain()
        part2 = coherent_components(g2)
        assert part2.loops == (True, True, True)
        assert part2.order_pairs == {(0, 2), (1, 2)}
        induced_group = set()
        for perm in itertools.permutations(g2.vertices):
            p = VertexPermutation(g2.vertices, dict(zip(g2.vertices, perm)))
            if preserves_prec(g2, p):
                induced_group.add(induced_component_permutation(part2, p))
        assert induced_group == {(0, 1, 2)}  # induced component action is trivial
        order_group = component_order_group(part2)
        assert len(order_group) == 2 and (1, 0, 2) in order_group
        assert time.monotonic() - t0 < 1.0

        # pentagon: every transposition preserves the (trivial) order
        t0 = time.monotonic()
        g3 = pentagon()
        transpositions = list(itertools.combinations(g3.vertices, 2))
        assert len(transpositions) == 10
        for a, b in transpositions:
            assert preserves_prec(g3, VertexPermutation.from_cycles(f"({a} {b})", g3.vertices))
        assert time.monotonic() - t0 < 1.0

        # four-pair chain with the double swap
        t0 = time.monotonic()
        action = action_for(four_pair_chain(), "(a1 b1)(a2 b2)(c1 d1)(c2 d2)")
        assert [o.members for o in action.orbits] == [(0, 1), (2, 3)]
        assert [o.c for o in action.orbits] == [1, 2]
        assert all(o.stabilizer.order == 1 for o in action.orbits)
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_family_dimensions():
    with criterion(2, "family dimensions exact; every instance decides yes/guaranteed"):
        instances = []
        inst = family_I(1, (3,))
        assert inst.expected_dimension == 15
        instances.append(inst)
        for m in range(2, 7):
            inst = family_I(m, (2,) * (m - 1) + (3,))
            assert inst.expected_dimension == 12 * m + 7
            instances.append(inst)
        for m in (3, 4, 5):
            inst = family_I_modified(m)
            assert inst.expected_dimension == 12 * m + 19
            instances.append(inst)
        for n in (3, 5, 6, 7):
            inst = family_II(n, 3)
            assert inst.expected_dimension == 12 * n
            instances.append(inst)
        for n, size in [(3, 4), (5, 4)]:
            inst = family_II(n, size)
            assert inst.expected_dimension == size * n + size * size * n
            instances.append(inst)
        inst = family_II_z4(3)
        assert inst.expected_dimension == 60
        instances.append(inst)

        for inst in instances:
            g = inst.graph
            assert g.num_vertices + g.num_edges == inst.expected_dimension
            action = build_action(coherent_components(inst.graph), inst.generators)
            decision = decide(action)
            assert decision.verdict == "yes"
            assert decision.realizability == "guaranteed"


def test_criterion_3_negative_decisions():
    with criterion(3, "negative decisions: K2, single vertex, 5-cycle, rotated 4-cycle"):
        t0 = time.monotonic()
        assert decide(action_for(complete_graph(2))).verdict == "no"
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        assert decide(action_for(discrete_graph(1))).verdict == "no"
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        assert decide(action_for(pentagon())).verdict == "no"
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        decision = decide(action_for(cycle_graph(4), "(v1 v2 v3 v4)"))
        assert decision.verdict == "no"
        failing = [v for v in decision.orbits if v.passed is False]
        assert failing and failing[0].failing_part.divisor == 1
        assert failing[0].failing_part.multiplicity == 1
        assert failing[0].orbit.c == 2
        assert time.monotonic() - t0 < 1.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "decide(no holonomy) == direct size criterion, exhaustively and randomly"):
        start = time.monotonic()

        def check(g):
            part = coherent_components(g)
            decision = decide(build_action(part, []))
            oracle = trivial_holonomy_check(part)
            assert [v.passed for v in decision.orbits] == list(oracle.passed)
            assert decision.verdict == oracle.verdict

        # all connected graphs with <= 7 vertices, up to isomorphism (atlas)
        from networkx.generators.atlas import graph_atlas_g
        import networkx as nx

        count = 0
        for G in graph_atlas_g():
            if G.number_of_nodes() == 0 or not nx.is_connected(G):
                continue
            labels = [f"v{i}" for i in G.nodes()]
            mapping = {n: f"v{n}" for n in G.nodes()}
            check(Graph(labels, [(mapping[u], mapping[v]) for u, v in G.edges()]))
            count += 1
        assert count == 996  # connected graphs on 1..7 vertices up to isomorphism

        # exhaustive over all labeled graphs with <= 5 vertices
        for n in range(1, 6):
            labels = [f"v{i}" for i in range(1, n + 1)]
            pairs = list(itertools.combinations(labels, 2))
            for bits in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                check(Graph(labels, edges))

        # 500 random graphs with <= 10 vertices
        rng = random.Random(42)
        for _ in range(500):
            n = rng.randint(1, 10)
            labels = [f"v{i}" for i in range(1, n + 1)]
            edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.4]
            check(Graph(labels, edges))

        assert time.monotonic() - start < 600


def test_criterion_5_certification_against_numeric_oracle():
    with criterion(5, "exact unit-circle test vs float oracle; named polynomials"):
        rng = random.Random(20250809)
        confident = 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            exact = unit_circle_analysis(char_poly(m)).exists
            moduli = np.abs(np.linalg.eigvals(np.array(m, dtype=float)))
            margin = float(np.min(np.abs(moduli - 1.0)))
            if margin > 1e-6:
                assert not exact
                confident += 1
            elif exact:
                # any exact hit must sit inside the numeric margin band
                assert margin < 1e-6
        assert confident > 500

        assert unit_circle_analysis(IntPolynomial((1, 1, 1))).exists
        assert unit_circle_analysis(IntPolynomial((-1, 0, 1))).exists
        assert unit_circle_analysis(cyclotomic(5)).exists
        assert not unit_circle_analysis(IntPolynomial((1, -3, 1))).exists
        cubic = IntPolynomial((1, -2, -1, 1))
        assert not unit_circle_analysis(cubic).exists
        assert exterior_square_char_poly(companion_rows(cubic)) == IntPolynomial((-1, -1, 2, 1))


def _verify_witness(graph, cycle_string):
    action = action_for(graph, cycle_string) if cycle_string else action_for(graph)
    w = build_witness(action)
    # (a) certified algebra automorphism: bracket preservation on all basis pairs
    assert is_algebra_automorphism(graph, w.full_matrix)
    # (b) exact commutation with every extended generator
    full = RationalMatrix(w.full_matrix)
    for gen in action.generators:
        ext = extend_to_algebra(graph, permutation_matrix(graph, gen))
        assert full * ext == ext * full
    # (c) integer-like, zero unit-circle roots
    assert is_integer_like(w.full_char_poly)
    analysis = unit_circle_analysis(w.full_char_poly)
    assert not analysis.exists
    assert analysis.sturm_root_count in (0, None)
    return w


def test_criterion_6_end_to_end_witnesses():
    with criterion(6, "certified witnesses: bipartite swap (dim 15), chain family m=2 (dim 31)"):
        t0 = time.monotonic()
        w = _verify_witness(complete_bipartite(3, 3), "(a1 b1)(a2 b2)(a3 b3)")
        assert RationalMatrix(w.full_matrix).shape == (15, 15)
        assert time.monotonic() - t0 < 10.0

        t0 = time.monotonic()
        inst = family_I(2, (2, 3))
        action = build_action(coherent_components(inst.graph), inst.generators)
        w2 = build_witness(action)
        full2 = RationalMatrix(w2.full_matrix)
        assert full2.shape == (31, 31)
        assert is_algebra_automorphism(inst.graph, w2.full_matrix)
        for gen in inst.generators:
            ext = extend_to_algebra(inst.graph, permutation_matrix(inst.graph, gen))
            assert full2 * ext == ext * full2
        assert is_integer_like(w2.full_char_poly)
        assert not unit_circle_analysis(w2.full_char_poly).exists
        assert time.monotonic() - t0 < 60.0


def test_criterion_7_witness_guard():
    with criterion(7, "assemble_witness refuses whenever the decision is not yes (200 instances)"):
        rng = random.Random(424242)
        from tests_support_guard import make_instances, dummy_plan  # noqa: F401

        instances = make_instances(rng, 200)
        assert len(instances) == 200
        non_yes = 0
        for graph, gens in instances:
            action = build_action(coherent_components(graph), gens)
            if decide(action).verdict != "yes":
                non_yes += 1
                with pytest.raises(WitnessRefused):
                    assemble_witness(action, dummy_plan(action))
        assert non_yes >= 120  # the mix is dominated by failing instances


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    with criterion(8, "repeated analyze runs produce byte-identical canonical JSON"):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(complete_bipartite(3, 3).to_json_dict()))
        argv = [
            "analyze", "--graph", str(path),
            "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json", "--witness",
        ]
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)
