import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anosovgraph.holonomy
from anosovgraph.errors import BoundExceeded, NotAnAutomorphism, PermutationError
from anosovgraph.fixtures import four_pair_chain, four_pair_chain_swap, pentagon
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    cycle_graph,
    discrete_graph,
    index_cycles,
    induced_component_permutation,
    is_graph_automorphism,
)
from anosovgraph.holonomy import _stabilizer_chain, _walk_cosets, build_action
from anosovgraph.repdecomp import decide, decompose_cyclic_perm_rep
from tests_support_oracles import (
    DictPermutation,
    dict_action_json,
    dict_close_group,
    dict_component_permutation,
    generated_group,
)


def action_for(graph, *cycle_strings, order_bound=10_000):
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    return build_action(coherent_components(graph), gens, order_bound)


class TestCloseGroup:
    """The group closure of the test oracles, `generated_group`."""

    def test_cyclic_closure(self):
        g = pentagon()
        rot = VertexPermutation.from_cycles("(a b c d e)", g.vertices)
        elements = generated_group([rot], g.vertices, 10_000)
        assert len(elements) == 5
        images = [tuple(map(h, g.vertices)) for h in elements]
        assert images == sorted(images)  # canonical order: image labels, in domain order

    def test_two_generators(self):
        g = discrete_graph(3)
        a = VertexPermutation.from_cycles("(v1 v2)", g.vertices)
        b = VertexPermutation.from_cycles("(v2 v3)", g.vertices)
        assert len(generated_group([a, b], g.vertices, 10_000)) == 6

    def test_bound(self):
        g = discrete_graph(5)
        a = VertexPermutation.from_cycles("(v1 v2)", g.vertices)
        b = VertexPermutation.from_cycles("(v1 v2 v3 v4 v5)", g.vertices)
        with pytest.raises(BoundExceeded):
            generated_group([a, b], g.vertices, 50)

    def test_generator_on_another_domain(self):
        g = discrete_graph(3)
        a = VertexPermutation.from_cycles("(v1 v2)", g.vertices[::-1])
        with pytest.raises(PermutationError, match="different domains"):
            generated_group([a], g.vertices, 10_000)


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
        assert decide(action).orbits[0].parts == decompose_cyclic_perm_rep(2, (2,))

    def test_graph_comes_from_the_partition(self):
        # the part swap of K2,2 fixes no component; with the components of the
        # discrete graph on the same vertices it would decide yes
        g = complete_bipartite(2, 2)
        part = coherent_components(g)
        action = build_action(part, [VertexPermutation.from_cycles("(a1 b1)(a2 b2)", g.vertices)])
        assert action.graph is g and action.partition is part
        assert decide(action).verdict == "no"
        assert list(inspect.signature(build_action).parameters) == ["part", "generators", "order_bound"]

    def test_non_automorphism_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(NotAnAutomorphism):
            action_for(g, "(v1 v2)")

    def test_generator_on_reordered_domain_is_reindexed(self):
        g = complete_bipartite(2, 2)
        swap = {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"}
        reordered = VertexPermutation(g.vertices[::-1], swap)
        assert is_graph_automorphism(g, reordered)
        part = coherent_components(g)
        action = build_action(part, [reordered])
        conjugators = [h for orbit in action.orbits for _, h in orbit.conjugators]
        assert conjugators and all(h.domain == g.vertices for h in action.generators + tuple(conjugators))
        expected = build_action(part, [VertexPermutation(g.vertices, swap)])
        assert action.to_json_dict() == expected.to_json_dict()

    def test_order_bound(self):
        g = cycle_graph(4)
        with pytest.raises(BoundExceeded):
            action_for(g, "(v1 v2 v3 v4)", order_bound=3)
        assert action_for(g, "(v1 v2 v3 v4)", order_bound=4).order == 4

    @pytest.mark.parametrize("order_bound", [0, -1])
    def test_order_bound_counts_the_identity(self, order_bound):
        # the trivial group has order 1, so a bound below 1 admits no group at all
        g = cycle_graph(4)
        with pytest.raises(BoundExceeded, match=f"exceeds the bound {order_bound}"):
            action_for(g, order_bound=order_bound)
        with pytest.raises(BoundExceeded):
            generated_group([], g.vertices, order_bound)
        assert action_for(g, order_bound=1).order == 1

    def test_orbit_stabilizer_identity_random(self):
        rng = random.Random(17)
        for n in (5, 6, 7):
            g = cycle_graph(n)
            rot = VertexPermutation.from_cycles("(" + " ".join(g.vertices) + ")", g.vertices)
            action = build_action(coherent_components(g), [rot])
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
        action = build_action(coherent_components(g), [rot])
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
            assert orbit.stabilizer.order == len(expected)
            powers, acc = set(), orbit.stabilizer.generator
            for _ in range(orbit.stabilizer.order):
                powers.add(acc)
                acc = acc * orbit.stabilizer.generator
            assert powers == expected

    def test_cyclicity_is_scanned_once(self, monkeypatch):
        # S_6 on the discrete graph: one component, so one stabilizer, the whole group
        g = discrete_graph(6)
        calls = []
        real_order = VertexPermutation.order
        real_cycles = anosovgraph.holonomy.index_cycles

        def counting_order(self):
            calls.append(self)
            return real_order(self)

        def counting_cycles(p):
            calls.append(p)
            return real_cycles(p)

        # build_action takes orders through index_cycles, the other layers through VertexPermutation.order
        monkeypatch.setattr(VertexPermutation, "order", counting_order)
        monkeypatch.setattr(anosovgraph.holonomy, "index_cycles", counting_cycles)
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
        action = action_for(g, "(v1 v2 v3 v4)")
        (orbit,) = action.orbits
        assert induced_component_permutation(action.partition, rot)[orbit.rep] != orbit.rep
        assert orbit.stabilizer.generator == rot * rot
        assert orbit.stabilizer.restriction == (1, 0)

    def test_trivial_and_non_cyclic_stabilizers(self):
        trivial = action_for(pentagon())
        assert [o.stabilizer.restriction for o in trivial.orbits] == [(0,)] * 5
        klein = action_for(discrete_graph(4), "(v1 v2)", "(v3 v4)")
        (orbit,) = klein.orbits
        assert not orbit.stabilizer.cyclic and orbit.stabilizer.restriction is None



def k_k_symmetric(k, diagonal):
    """K_{k,k} with S_k on side a, or on both sides at once: a transposition and a k-cycle."""
    g = complete_bipartite(k, k)
    sides = "ab" if diagonal else "a"
    swap = "".join(f"({s}1 {s}2)" for s in sides)
    rotate = "".join("(" + " ".join(f"{s}{i}" for i in range(1, k + 1)) + ")" for s in sides)
    return g, (swap, rotate)


def three_edges():
    """Three disjoint edges, so three complete components of two vertices each."""
    return Graph(["x1", "y1", "x2", "y2", "x3", "y3"], [("x1", "y1"), ("x2", "y2"), ("x3", "y3")])


def matches_oracle(graph, *cycle_strings):
    """build_action on the cycle strings, checked against the dict-based scans it replaced."""
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    old = [DictPermutation(graph.vertices, {v: g(v) for v in graph.vertices}) for g in gens]
    part = coherent_components(graph)
    action = build_action(part, gens)
    assert action.to_json_dict() == dict_action_json(part, old)
    return action


class TestCyclicityPaths:
    """Each way `build_action` settles cyclicity gives what the all-orders scan gave."""

    @pytest.mark.parametrize("diagonal", [False, True], ids=["one-sided", "diagonal"])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_generators_that_do_not_commute(self, k, diagonal):
        # S_k fixes both sides: each stabilizer is the group, not cyclic
        graph, gens = k_k_symmetric(k, diagonal)
        action = matches_oracle(graph, *gens)
        assert not action.is_cyclic and len(action.orbits) == 2
        for orbit in action.orbits:
            assert orbit.stabilizer.order == action.order and not orbit.stabilizer.cyclic
        assert decide(action).verdict == "undecided"

    def test_non_abelian_group_with_cyclic_stabilizer(self):
        # S_3 permutes the three edges; the stabilizer of one swaps the other two
        action = matches_oracle(three_edges(), "(x1 x2)(y1 y2)", "(x1 x2 x3)(y1 y2 y3)")
        assert action.order == 6 and not action.is_cyclic
        (orbit,) = action.orbits
        assert orbit.members == (0, 1, 2) and orbit.c == 2
        assert orbit.stabilizer.order == 2 and orbit.stabilizer.cyclic
        assert orbit.stabilizer.generator.cycle_string() == "(x2 x3)(y2 y3)"
        assert decide(action).verdict in ("yes", "no")

    def test_abelian_group_that_is_not_cyclic(self):
        action = matches_oracle(discrete_graph(4), "(v1 v2)", "(v3 v4)")
        assert action.order == 4 and not action.is_cyclic
        (orbit,) = action.orbits
        assert orbit.stabilizer.order == 4 and not orbit.stabilizer.cyclic

    def test_commuting_generators_of_a_cyclic_group(self):
        # Z2 x Z3 is cyclic: the scan has to find an element of order 6
        action = matches_oracle(discrete_graph(5), "(v1 v2)", "(v3 v4 v5)")
        assert action.order == 6 and action.is_cyclic
        (orbit,) = action.orbits
        assert orbit.stabilizer.generator.order() == 6

    @pytest.mark.parametrize("diagonal", [False, True], ids=["one-sided", "diagonal"])
    def test_no_orders_and_generator_checks_only(self, monkeypatch, diagonal):
        # S_6 on K6,6: no element's order is needed, and only generators are checked
        graph, gens = k_k_symmetric(6, diagonal)
        orders, checks = [], []
        real_cycles = anosovgraph.holonomy.index_cycles
        real_check = anosovgraph.holonomy.induced_component_permutation

        def counting_cycles(p):
            orders.append(p)
            return real_cycles(p)

        def counting_check(part, p):
            checks.append(p)
            return real_check(part, p)

        monkeypatch.setattr(anosovgraph.holonomy, "index_cycles", counting_cycles)
        monkeypatch.setattr(anosovgraph.holonomy, "induced_component_permutation", counting_check)
        action = action_for(graph, *gens)
        assert action.order == 720 and not action.is_cyclic
        assert orders == []
        assert checks == list(action.generators)


class TestJsonDict:
    """`HolonomyAction.to_json_dict` takes one cycle string per distinct stabilizer generator."""

    @pytest.mark.parametrize(
        "cycle_strings, distinct",
        [((), 1), (("(x1 x2)(y1 y2)",), 2)],
        ids=["trivial", "one-swap"],
    )
    def test_cycle_string_once_per_distinct_stabilizer_generator(self, monkeypatch, cycle_strings, distinct):
        # 30 disjoint edges: 30 components, each its own orbit but for a swapped pair
        graph = Graph(
            [v for i in range(1, 31) for v in (f"x{i}", f"y{i}")],
            [(f"x{i}", f"y{i}") for i in range(1, 31)],
        )
        gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
        old = [DictPermutation(graph.vertices, {v: g(v) for v in graph.vertices}) for g in gens]
        part = coherent_components(graph)
        action = build_action(part, gens)
        assert sum(len(orbit.members) == 1 for orbit in action.orbits) >= 25
        assert len({orbit.stabilizer.generator for orbit in action.orbits}) == distinct
        calls = []
        real_cycle_string = VertexPermutation.cycle_string

        def counting_cycle_string(self):
            calls.append(self)
            return real_cycle_string(self)

        monkeypatch.setattr(VertexPermutation, "cycle_string", counting_cycle_string)
        payload = action.to_json_dict()
        assert len(calls) == len(gens) + distinct
        assert payload == dict_action_json(part, old)


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
        elements = generated_group(gens, graph.vertices, 10_000)
        assert [h.cycle_string() for h in elements] == [
            h.cycle_string() for h in dict_close_group(old, graph.vertices)
        ]
        part = coherent_components(graph)
        assert build_action(part, gens).to_json_dict() == dict_action_json(part, old)
        # the same vertex set listed in another order: not the graph's vertex tuple
        other = graph.vertices[::-1]
        moved = [VertexPermutation(other, m) for m in maps]
        moved_old = [DictPermutation(other, m) for m in maps]
        assert [h.cycle_string() for h in generated_group(moved, other, 10_000)] == [
            h.cycle_string() for h in dict_close_group(moved_old, other)
        ]
        for new, dict_perm in zip(moved, moved_old):
            assert induced_component_permutation(part, new) == dict_component_permutation(part, dict_perm)

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_conjugators_match_group_scan(self, case):
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        action = build_action(coherent_components(graph), gens)
        part = action.partition
        elements = generated_group(gens, graph.vertices, 10_000)
        for orbit in action.orbits:
            expected = tuple(
                (member, next(
                    h for h in elements
                    if induced_component_permutation(part, h)[orbit.rep] == member
                ))
                for member in orbit.members
                if member != orbit.rep
            )
            assert orbit.conjugators == expected

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_stabilizer_restriction(self, case):
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        action = build_action(coherent_components(graph), gens)
        for index, orbit in enumerate(action.orbits):
            stab = orbit.stabilizer
            if not stab.cyclic:
                assert stab.restriction is None
                continue
            expected = dict_restriction(action.partition, stab.generator, orbit.rep)
            assert stab.restriction == expected
            lengths = [len(c) for c in index_cycles(expected)]
            parts = decompose_cyclic_perm_rep(stab.order, lengths)
            assert decide(action).orbits[index].parts == parts

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_every_element_permutes_components(self, case):
        # products of generators that permute components do too, so the
        # orbit search over the generators' component permutations finds the orbits
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        part = coherent_components(graph)
        component_of = {v: i for i, comp in enumerate(part.components) for v in comp}
        reps = [orbit.rep for orbit in build_action(part, gens).orbits]
        for h in generated_group(gens, graph.vertices, 10_000):
            perm = induced_component_permutation(part, h)
            for rep in reps:
                assert perm[rep] == component_of[h(part.components[rep][0])]


def label_ranks(graph):
    """The rank of each position's label among the labels: the canonical order on positions."""
    ordered = sorted(graph.vertices)
    return [ordered.index(v) for v in graph.vertices]


def every_coset(t, size):
    return True


class TestStabilizerChain:
    """The stabilizer chain behind `build_action`, against the closure oracle."""

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_canonical_walk_is_the_sorted_closure(self, case):
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        closure = generated_group(gens, graph.vertices, 10_000)
        n = graph.num_vertices
        levels = _stabilizer_chain([g.positions for g in gens], n)
        walked = list(_walk_cosets(levels, label_ranks(graph), every_coset, tuple(range(n))))
        assert walked == [h.positions for h in closure]

    @given(symmetric_blowups(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_elements_are_the_sorted_closure(self, case, data):
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m) for m in maps]
        closure = generated_group(gens, graph.vertices, 10_000)
        action = build_action(coherent_components(graph), gens)
        elements = action.elements
        assert len(elements) == action.order == len(closure)
        assert tuple(elements) == closure
        i = data.draw(st.integers(-len(closure), len(closure) - 1))
        assert elements[i] == closure[i]
        assert elements[i::3] == closure[i::3]
        with pytest.raises(IndexError):
            elements[len(closure)]

    def test_element_count_builds_no_chain(self, monkeypatch):
        graph, gens = k_k_symmetric(6, diagonal=True)
        action = action_for(graph, *gens)
        monkeypatch.setattr(anosovgraph.holonomy, "_stabilizer_chain", None)
        assert len(action.elements) == 720

    @given(symmetric_blowups())
    @settings(max_examples=80, deadline=None)
    def test_chain_depends_only_on_the_group(self, case):
        # base points increase, every basic orbit has two points or more, and
        # another generating set of the same group gives the same levels
        graph, maps = case
        gens = [VertexPermutation(graph.vertices, m).positions for m in maps]
        n = graph.num_vertices
        levels = _stabilizer_chain(gens, n)
        points = [level.point for level in levels]
        assert points == sorted(set(points))
        assert all(len(level.transversal) > 1 for level in levels)
        closure = [h.positions for h in generated_group(
            [VertexPermutation(graph.vertices, m) for m in maps], graph.vertices, 10_000
        )]
        again = _stabilizer_chain(closure[::-1], n)
        assert [(lv.point, set(lv.transversal)) for lv in again] == [
            (lv.point, set(lv.transversal)) for lv in levels
        ]

    def test_order_bound_at_the_group_order(self):
        # S5 on one side of K5,5: order 120 answers at bound 120, and exceeds 119
        graph, gens = k_k_symmetric(5, diagonal=False)
        assert action_for(graph, *gens, order_bound=120).order == 120
        with pytest.raises(BoundExceeded, match="exceeds the bound 119"):
            action_for(graph, *gens, order_bound=119)

    @pytest.mark.parametrize("joined", [False, True], ids=["one-generator-per-class", "one-generator"])
    def test_cyclic_group_of_coprime_rotations(self, joined):
        # rotations of discrete classes of 3, 4 and 5 points joined in a path:
        # cyclic of order 60, and the first generator moves every class
        classes = [[f"c{i}_{j}" for j in range(1, size + 1)] for i, size in enumerate((3, 4, 5), 1)]
        graph = Graph(
            [v for cls in classes for v in cls],
            [(u, v) for a, b in zip(classes, classes[1:]) for u in a for v in b],
        )
        cycles = ["(" + " ".join(cls) + ")" for cls in classes]
        action = matches_oracle(graph, *(["".join(cycles)] if joined else cycles))
        assert action.order == 60 and action.is_cyclic
        assert all(orbit.stabilizer.generator.order() == 60 for orbit in action.orbits)
