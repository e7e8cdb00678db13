import itertools

import pytest

from anosovgraph.errors import GraphInputError
from anosovgraph.families import (
    FOUR_CYCLE_MESSAGE,
    FamilySpec,
    family_I,
    family_I_modified,
    family_II,
    family_II_z4,
    generate,
)
from anosovgraph.graphs import coherent_components, is_graph_automorphism
from anosovgraph.holonomy import build_action
from anosovgraph.repdecomp import decide
from tests_support_oracles import prec


def brute_order_pairs(g, part):
    pairs = set()
    for i, ci in enumerate(part.components):
        for j, cj in enumerate(part.components):
            if i != j and prec(g, ci[0], cj[0]):
                pairs.add((i, j))
    return pairs


def check_instance(inst):
    g = inst.graph
    part = coherent_components(g)
    assert g.num_vertices + g.num_edges == inst.expected_dimension
    for gen in inst.generators:
        assert is_graph_automorphism(g, gen)
    action = build_action(part, inst.generators)
    decision = decide(action)
    assert decision.verdict == "yes"
    assert decision.realizability == "guaranteed"
    return part, action


class TestFamilyI:
    def test_minimal_is_complete_bipartite(self):
        inst = family_I(1, (3,))
        assert inst.expected_dimension == 15
        part, action = check_instance(inst)
        assert part.component_sizes() == (3, 3)
        assert part.loops == (False, False)
        assert inst.generators[0].order() == 2

    def test_dimension_formula(self):
        for m in range(2, 7):
            inst = family_I(m, (2,) * (m - 1) + (3,))
            assert inst.expected_dimension == 12 * m + 7
            check_instance(inst)

    def test_general_sizes(self):
        inst = family_I(3, (2, 4, 5))
        expected = (2 * 2 + 2 * 4 + 2 * 5) + (2 * (2 * 4 + 4 * 5) + 25)
        assert inst.expected_dimension == expected
        check_instance(inst)

    def test_quotient_structure(self):
        m = 3
        inst = family_I(m, (2, 2, 3))
        g = inst.graph
        part = coherent_components(g)
        assert part.num_components == 2 * m
        assert all(k == "discrete" for k in part.kinds)
        assert not any(part.loops)
        # path with 2m-1 edges, and the order matches direct set containment
        assert len(part.quotient_edges) == 2 * m - 1
        assert part.order_pairs == brute_order_pairs(g, part)

    def test_vertex_naming_reproducible(self):
        a = family_I(2, (2, 3))
        b = family_I(2, (2, 3))
        assert a.graph == b.graph
        assert a.graph.vertices[0] == "λ1_1"
        assert a.generators == b.generators

    def test_parameter_validation(self):
        with pytest.raises(GraphInputError):
            family_I(0, ())
        with pytest.raises(GraphInputError):
            family_I(2, (2, 2))  # last size must be >= 3
        with pytest.raises(GraphInputError):
            family_I(2, (1, 3))
        with pytest.raises(GraphInputError):
            family_I(2, (2,))  # wrong number of sizes

    def test_alternative_pairing_same_verdict(self):
        # any order-2 automorphism swapping the paired components gives the
        # same verdict as the canonical position-preserving swap
        inst = family_I(1, (3,))
        g = inst.graph
        part = coherent_components(g)
        twisted = {
            "λ1_1": "λ2_2",
            "λ2_2": "λ1_1",
            "λ1_2": "λ2_1",
            "λ2_1": "λ1_2",
            "λ1_3": "λ2_3",
            "λ2_3": "λ1_3",
        }
        from anosovgraph.graphs import VertexPermutation

        sigma = VertexPermutation(g.vertices, twisted)
        assert is_graph_automorphism(g, sigma)
        action = build_action(part, [sigma])
        assert decide(action).verdict == "yes"


class TestFamilyIModified:
    def test_dimensions(self):
        for m in (3, 4, 5):
            inst = family_I_modified(m)
            assert inst.expected_dimension == 12 * m + 19
            check_instance(inst)

    def test_loops_at_ends_only(self):
        inst = family_I_modified(3)
        part = coherent_components(inst.graph)
        assert part.component_sizes() == (3, 3, 2, 2, 3, 3)
        assert part.loops == (True, True, False, False, False, False)
        assert part.order_pairs == brute_order_pairs(inst.graph, part)

    def test_m_too_small(self):
        with pytest.raises(GraphInputError):
            family_I_modified(2)

    def test_same_dimension_non_isomorphic_to_family_I(self):
        # dim 55 both ways: modified m=3 vs plain m=4
        mod = family_I_modified(3)
        plain = family_I(4, (2, 2, 2, 3))
        assert mod.expected_dimension == plain.expected_dimension == 55
        deg_mod = sorted(len(mod.graph.open_neighborhood(v)) for v in mod.graph.vertices)
        deg_plain = sorted(
            len(plain.graph.open_neighborhood(v)) for v in plain.graph.vertices
        )
        assert deg_mod != deg_plain


class TestFamilyII:
    def test_dimensions(self):
        for n in (3, 5, 6, 7):
            inst = family_II(n)
            assert inst.expected_dimension == 12 * n
            check_instance(inst)

    def test_general_size(self):
        for n, size in [(3, 4), (5, 4), (6, 5)]:
            inst = family_II(n, size)
            assert inst.expected_dimension == size * n + size * size * n
            check_instance(inst)

    def test_quotient_is_cycle(self):
        n = 5
        inst = family_II(n)
        part = coherent_components(inst.graph)
        assert part.num_components == n
        assert len(part.quotient_edges) == n
        assert not any(part.loops)
        assert inst.generators[0].order() == n

    def test_four_cycle_rejected(self):
        with pytest.raises(GraphInputError) as exc_info:
            family_II(4)
        assert "can not be realized as a quotient graph" in str(exc_info.value)
        assert FOUR_CYCLE_MESSAGE in str(exc_info.value)

    def test_parameter_validation(self):
        with pytest.raises(GraphInputError):
            family_II(2)
        with pytest.raises(GraphInputError):
            family_II(5, 2)


class TestFamilyIIZ4:
    def test_dimension_sixty(self):
        inst = family_II_z4(3)
        assert inst.expected_dimension == 60
        check_instance(inst)

    def test_all_components_complete(self):
        inst = family_II_z4(3)
        part = coherent_components(inst.graph)
        assert part.num_components == 4
        assert all(part.loops)
        assert len(part.quotient_edges) == 4
        assert inst.generators[0].order() == 4

    def test_size_validation(self):
        with pytest.raises(GraphInputError):
            family_II_z4(2)

    def test_larger_size(self):
        inst = family_II_z4(4)
        assert inst.expected_dimension == 4 * 4 + 2 * 4 * 3 + 4 * 16
        check_instance(inst)


class TestGenerate:
    def test_dispatch(self):
        assert generate(FamilySpec("I", m=1, sizes=(3,))).expected_dimension == 15
        assert generate(FamilySpec("I-modified", m=3)).expected_dimension == 55
        assert generate(FamilySpec("II", n=3)).expected_dimension == 36
        assert generate(FamilySpec("II-Z4", size=3)).expected_dimension == 60

    def test_unknown_family(self):
        with pytest.raises(GraphInputError):
            generate(FamilySpec("III"))

    def test_missing_parameters(self):
        with pytest.raises(GraphInputError):
            generate(FamilySpec("I"))
        with pytest.raises(GraphInputError):
            generate(FamilySpec("II"))
