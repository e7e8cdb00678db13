import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovgraph.errors import BoundExceeded, NotAnAutomorphism
from anosovgraph.fixtures import four_pair_chain, four_pair_chain_swap, pentagon
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    cycle_graph,
    discrete_graph,
    index_cycles,
    induced_component_permutation,
)
from anosovgraph.holonomy import build_action, close_group
from anosovgraph.repdecomp import decide, orbit_verdict
from tests_support_oracles import (
    DictPermutation,
    dict_action_json,
    dict_close_group,
    dict_component_permutation,
)


def action_for(graph, *cycle_strings, order_bound=10_000):
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    return build_action(graph, coherent_components(graph), gens, order_bound)


class TestCloseGroup:
    def test_cyclic_closure(self):
        g = pentagon()
        rot = VertexPermutation.from_cycles("(a b c d e)", g.vertices)
        elements = close_group([rot], g.vertices)
        assert len(elements) == 5

    def test_two_generators(self):
        g = discrete_graph(3)
        a = VertexPermutation.from_cycles("(v1 v2)", g.vertices)
        b = VertexPermutation.from_cycles("(v2 v3)", g.vertices)
        assert len(close_group([a, b], g.vertices)) == 6

    def test_bound(self):
        g = discrete_graph(5)
        a = VertexPermutation.from_cycles("(v1 v2)", g.vertices)
        b = VertexPermutation.from_cycles("(v1 v2 v3 v4 v5)", g.vertices)
        with pytest.raises(BoundExceeded):
            close_group([a, b], g.vertices, order_bound=50)


class TestBuildAction:
    def test_four_pair_chain_swap(self):
        g = four_pair_chain()
        action = action_for(g, "(a1 b1)(a2 b2)(c1 d1)(c2 d2)")
        assert action.order == 2
        assert [o.members for o in action.orbits] == [(0, 1), (2, 3)]
        assert [o.c for o in action.orbits] == [1, 2]
        assert all(o.stabilizer.order == 1 for o in action.orbits)
        assert all(o.stabilizer.cyclic for o in action.orbits)

    def test_trivial_generators(self):
        g = four_pair_chain()
        action = action_for(g)
        assert action.order == 1
        assert len(action.orbits) == 4
        assert [o.c for o in action.orbits] == [1, 1, 1, 1]
        for o in action.orbits:
            assert o.stabilizer.order == 1

    def test_four_cycle_rotation(self):
        g = cycle_graph(4)
        action = action_for(g, "(v1 v2 v3 v4)")
        assert action.order == 4
        assert len(action.orbits) == 1
        orbit = action.orbits[0]
        assert orbit.members == (0, 1)
        assert orbit.c == 2  # the quotient edge joins the two members
        assert orbit.stabilizer.order == 2
        assert orbit.stabilizer.cyclic
        assert orbit.stabilizer.restriction == (1, 0)
        assert orbit_verdict(action, 0).decomposition.cycle_type == (2,)

    def test_non_automorphism_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(NotAnAutomorphism):
            action_for(g, "(v1 v2)")

    def test_order_bound(self):
        g = cycle_graph(4)
        with pytest.raises(BoundExceeded):
            action_for(g, "(v1 v2 v3 v4)", order_bound=3)

    def test_orbit_stabilizer_identity_random(self):
        rng = random.Random(17)
        for n in (5, 6, 7):
            g = cycle_graph(n)
            rot = VertexPermutation.from_cycles("(" + " ".join(g.vertices) + ")", g.vertices)
            action = build_action(g, coherent_components(g), [rot])
            for orbit in action.orbits:
                assert orbit.stabilizer.order * len(orbit.members) == action.order

    def test_c_constant_on_orbit(self):
        g = four_pair_chain()
        action = action_for(g, "(a1 b1)(a2 b2)(c1 d1)(c2 d2)")
        part = action.partition
        for orbit in action.orbits:
            # recompute c from each member's perspective: same orbit, same value
            for member in orbit.members:
                (owner,) = [o for o in action.orbits if member in o.members]
                assert owner.c == orbit.c

    def test_cyclic_stabilizer_is_power_subgroup(self):
        # order-n rotation acting on k components: stabilizer = powers of rot^orbit_size
        g = cycle_graph(6)
        rot = VertexPermutation.from_cycles("(v1 v2 v3 v4 v5 v6)", g.vertices)
        action = build_action(g, coherent_components(g), [rot])
        for orbit in action.orbits:
            o = len(orbit.members)
            expected = set()
            # rot^o generates the stabilizer
            step_o = VertexPermutation.identity(g.vertices)
            for _ in range(o):
                step_o = step_o * rot
            acc = VertexPermutation.identity(g.vertices)
            for _ in range(action.order // o):
                expected.add(acc)
                acc = acc * step_o
            assert set(orbit.stabilizer.elements) == expected

    def test_cyclicity_is_scanned_once(self, monkeypatch):
        # S_6 on the discrete graph: one component, so one stabilizer, the whole group
        g = discrete_graph(6)
        calls = []
        real_order = VertexPermutation.order

        def counting_order(self):
            calls.append(self)
            return real_order(self)

        monkeypatch.setattr(VertexPermutation, "order", counting_order)
        action = action_for(g, "(v1 v2)", "(v1 v2 v3 v4 v5 v6)")
        assert action.order == 720 and not action.is_cyclic
        assert len(calls) <= action.order  # at most once per element, stabilizer scans included
        calls.clear()
        verdict = decide(action)
        payload = action.to_json_dict()
        assert payload["cyclic"] is False and verdict.realizability == "unknown"
        assert calls == []

    def test_restriction_helpers(self):
        g = cycle_graph(4)
        action = action_for(g, "(v1 v3)(v2 v4)")
        assert [o.stabilizer.restriction for o in action.orbits] == [(1, 0), (1, 0)]
        # the rotation moves component 1, so the restriction comes from its square
        rot = VertexPermutation.from_cycles("(v1 v2 v3 v4)", g.vertices)
        (orbit,) = action_for(g, "(v1 v2 v3 v4)").orbits
        assert rot not in orbit.stabilizer.elements
        assert orbit.stabilizer.generator == rot * rot
        assert orbit.stabilizer.restriction == (1, 0)

    def test_trivial_and_non_cyclic_stabilizers(self):
        trivial = action_for(pentagon())
        assert [o.stabilizer.restriction for o in trivial.orbits] == [(0,)] * 5
        klein = action_for(discrete_graph(4), "(v1 v2)", "(v3 v4)")
        (orbit,) = klein.orbits
        assert not orbit.stabilizer.cyclic and orbit.stabilizer.restriction is None


@st.composite
def symmetric_blowups(draw):
    """A blow-up of a random graph or a cycle on at most 5 nodes (each node a
    complete or discrete class of 1-3 vertices), with 1-2 automorphisms: a
    size- and kind-preserving base automorphism lifted with random bijections
    between the classes. Cycles and uniform classes make automorphisms that
    move components common. Labels such as v10 come before v9 and the vertex
    list is shuffled, so label order and position order differ."""
    k = draw(st.integers(1, 5))
    if k >= 3 and draw(st.booleans()):
        base = {tuple(sorted((i, (i + 1) % k))) for i in range(k)}
    else:
        base = {pair for pair in itertools.combinations(range(k), 2) if draw(st.booleans())}
    max_size = 3 if k <= 3 else 2  # keeps the group order in the hundreds
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, max_size))] * k
        complete = [draw(st.booleans())] * k
    else:
        sizes = [draw(st.integers(1, max_size)) for _ in range(k)]
        complete = [draw(st.booleans()) for _ in range(k)]
    numbers = draw(st.lists(st.integers(1, 30), min_size=sum(sizes), max_size=sum(sizes), unique=True))
    labels = iter(f"v{i}" for i in numbers)
    classes = [[next(labels) for _ in range(size)] for size in sizes]
    edges = [(u, v) for i, j in base for u in classes[i] for v in classes[j]]
    edges += [e for i, cls in enumerate(classes) if complete[i] for e in itertools.combinations(cls, 2)]
    graph = Graph(draw(st.permutations([v for cls in classes for v in cls])), edges)
    base_autos = [
        sigma for sigma in itertools.permutations(range(k))
        if all(sizes[sigma[i]] == sizes[i] and complete[sigma[i]] == complete[i] for i in range(k))
        and {tuple(sorted((sigma[i], sigma[j]))) for i, j in base} == base
    ]
    maps = []
    for _ in range(draw(st.integers(1, 2))):
        sigma = draw(st.sampled_from(base_autos[1:] or base_autos))  # not the identity, if possible
        mapping = {}
        for i, cls in enumerate(classes):
            mapping.update(zip(cls, draw(st.permutations(classes[sigma[i]]))))
        maps.append(mapping)
    return graph, maps


def dict_restriction(part, p, comp_index):
    """p restricted to one component, through labels: the code the stored field replaced."""
    comp = part.components[comp_index]
    pos = {v: i for i, v in enumerate(comp)}
    out = [0] * len(comp)
    for v in comp:
        w = p(v)
        if w not in pos:
            raise ValueError(f"{p.cycle_string()} does not stabilize component {comp_index + 1}")
        out[pos[v]] = pos[w]
    return tuple(out)


class TestMatchesDictClosure:
    """Closure order, component action and orbit data against the label-dict code they replaced."""

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_closure_and_action(self, case):
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        old = [DictPermutation(graph.vertices, m) for m in maps]
        elements = close_group(gens, graph.vertices)
        assert [h.cycle_string() for h in elements] == [
            h.cycle_string() for h in dict_close_group(old, graph.vertices)
        ]
        part = coherent_components(graph)
        assert build_action(graph, part, gens).to_json_dict() == dict_action_json(part, old)
        # the same vertex set listed in another order: not the graph's vertex tuple
        other = graph.vertices[::-1]
        moved = [VertexPermutation(other, m) for m in maps]
        moved_old = [DictPermutation(other, m) for m in maps]
        assert [h.cycle_string() for h in close_group(moved, other)] == [
            h.cycle_string() for h in dict_close_group(moved_old, other)
        ]
        for new, dict_perm in zip(moved, moved_old):
            assert induced_component_permutation(part, new) == dict_component_permutation(part, dict_perm)

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_stabilizer_restriction(self, case):
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        action = build_action(graph, coherent_components(graph), gens)
        for index, orbit in enumerate(action.orbits):
            stab = orbit.stabilizer
            if not stab.cyclic:
                assert stab.restriction is None
                continue
            expected = dict_restriction(action.partition, stab.generator, orbit.rep)
            assert stab.restriction == expected
            cycle_type = tuple(sorted(len(c) for c in index_cycles(expected)))
            assert orbit_verdict(action, index).decomposition.cycle_type == cycle_type
