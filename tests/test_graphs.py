import itertools
import json
import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovgraph import (
    BoundExceeded,
    Graph,
    GraphInputError,
    PermutationError,
    PreconditionViolation,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    discrete_graph,
    induced_component_permutation,
    is_graph_automorphism,
    parse_graph,
    parse_holonomy_generators,
)
from anosovgraph.fixtures import (
    all_loops_chain,
    four_pair_chain,
    four_pair_chain_swap,
    loop_end_chain,
    pentagon,
)
from anosovgraph.graphs import graph_from_json_dict
from tests_support_oracles import (
    DictPermutation,
    closed_neighborhood,
    component_order_group,
    has_edge,
    is_identity,
    label_coherent_components,
    label_is_graph_automorphism,
    prec,
    preserves_prec,
)


def random_graph(rng, max_vertices=8):
    n = rng.randint(1, max_vertices)
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.45]
    return Graph(labels, edges)


@st.composite
def graphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(labels, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def blowups(draw, max_base=10):
    """A random base graph with each node blown up to a complete or discrete class of 1-3
    vertices, listed in shuffled order: many coherent components, related in many ways."""
    k = draw(st.integers(min_value=1, max_value=max_base))
    base = [pair for pair in itertools.combinations(range(k), 2) if draw(st.booleans())]
    classes = [[f"v{i}_{t}" for t in range(draw(st.integers(1, 3)))] for i in range(k)]
    edges = [(u, v) for i, j in base for u in classes[i] for v in classes[j]]
    for cls in classes:
        if draw(st.booleans()):
            edges.extend(itertools.combinations(cls, 2))
    vertices = draw(st.permutations([v for cls in classes for v in cls]))
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# Parsing


class TestParsing:
    def test_json_k2(self):
        g = parse_graph('{"vertices":["a","b"],"edges":[["a","b"]]}')
        assert g.vertices == ("a", "b")
        assert g.edges == (("a", "b"),)

    def test_text_form(self):
        text = "a b\nc\n--\na b\nb c\n"
        g = parse_graph(text)
        assert g.vertices == ("a", "b", "c")
        assert g.num_edges == 2

    def test_seven_vertex_chain_fixture(self):
        # Edge list built from the reference figure: 4 + 6 + 3 edges.
        g = loop_end_chain()
        text = " ".join(g.vertices) + "\n--\n" + "\n".join(f"{u} {v}" for u, v in g.edges)
        assert parse_graph(text) == g
        assert g.num_vertices == 7
        assert g.num_edges == 13

    def test_loop_rejected(self):
        with pytest.raises(GraphInputError):
            parse_graph('{"vertices":["a"],"edges":[["a","a"]]}')

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphInputError):
            parse_graph('{"vertices":["a","b"],"edges":[["a","b"],["b","a"]]}')

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphInputError):
            parse_graph('{"vertices":["a","a"],"edges":[]}')

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphInputError):
            parse_graph('{"vertices":["a"],"edges":[["a","b"]]}')

    def test_malformed_text(self):
        with pytest.raises(GraphInputError):
            parse_graph("a b\na b")  # no separator

    def test_json_integer_too_long_rejected(self):
        # more digits than int() converts: a ValueError that is not a JSONDecodeError
        with pytest.raises(GraphInputError, match="invalid JSON"):
            parse_graph('{"vertices": [' + "1" * 5000 + '], "edges": []}')

    @pytest.mark.parametrize("text", ['{"vertices": [], "edges": []}', "--\n"], ids=["json", "text"])
    def test_no_vertices_rejected(self, text):
        with pytest.raises(GraphInputError, match="no vertices listed"):
            parse_graph(text)

    def test_json_roundtrip(self):
        g = four_pair_chain()
        again = parse_graph(json.dumps(g.to_json_dict()))
        assert again == g


class TestInputErrors:
    """Each input error's exact message, and which offending item it names first."""

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (["a", 1, 2.5], [], "vertex label must be a string: 1"),
            (["a", "b"], [["a", "b"], ["a"]], "edge must be a pair: ['a']"),
            (["a", "b"], [["a", "b", "a"]], "edge must be a pair: ['a', 'b', 'a']"),
            (["a", "b"], ["ab"], "edge must be a pair: 'ab'"),
            (["a", "b"], [{"a": "b"}], "edge must be a pair: {'a': 'b'}"),
            (["a", "b"], [["a", 1]], "edge endpoints must be vertex labels (strings): ['a', 1]"),
            (["a", "b"], [[None, "b"]], "edge endpoints must be vertex labels (strings): [None, 'b']"),
            (["a", "b"], [["a", "z"]], "edge endpoint 'z' is not a listed vertex"),
            (["a", "b"], [["y", "z"]], "edge endpoint 'y' is not a listed vertex"),
            (["a", "b"], [["a", "a"]], "loop edge at 'a' (simple graphs only)"),
            (["a", "b"], [["b", "a"], ["a", "b"]], "duplicate edge 'a'-'b'"),
            (["b", "a"], [["a", "b"], ["a", "b"]], "duplicate edge 'b'-'a'"),
            (["a", "b", "a"], [], "duplicate vertex label 'a'"),
            (["a", "b", "b", "a"], [], "duplicate vertex label 'b'"),
        ],
        ids=[
            "non-str-vertex", "short-edge", "long-edge", "string-edge", "dict-edge",
            "non-str-endpoint", "null-endpoint", "unknown-head", "unknown-tail-first", "loop",
            "duplicate-edge", "duplicate-edge-vertex-order", "duplicate-vertex", "first-duplicate-vertex",
        ],
    )
    def test_json_message(self, vertices, edges, message):
        with pytest.raises(GraphInputError) as err:
            graph_from_json_dict({"vertices": vertices, "edges": edges})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            # good edges, then a loop, then an unknown endpoint and a duplicate
            (
                ["a", "b", "c"],
                [["a", "b"], ["b", "c"], ["c", "c"], ["a", "z"], ["b", "a"]],
                "loop edge at 'c' (simple graphs only)",
            ),
            # an unknown endpoint before a loop and a duplicate
            (
                ["a", "b", "c"],
                [["a", "b"], ["c", "z"], ["a", "a"], ["a", "b"]],
                "edge endpoint 'z' is not a listed vertex",
            ),
            # a duplicate before a loop
            (["a", "b", "c"], [["c", "a"], ["b", "c"], ["a", "c"], ["b", "b"]], "duplicate edge 'a'-'c'"),
            # the first bad endpoint of an edge whose both endpoints are unknown, after good edges
            (["a", "b"], [["a", "b"], ["x", "y"]], "edge endpoint 'x' is not a listed vertex"),
            # a non-pair edge after a non-str endpoint: the earlier edge is named
            (["a", "b"], [["a", "b"], ["a", 1], ["a"]], "edge endpoints must be vertex labels (strings): ['a', 1]"),
            # a non-str endpoint after a non-pair edge
            (["a", "b"], [["a", "b"], ["a"], ["a", 1]], "edge must be a pair: ['a']"),
            # the shape of every edge is checked before any endpoint is looked up
            (["a", "b"], [["a", "z"], ["a", "a"], ["a"]], "edge must be a pair: ['a']"),
            # every vertex label is checked before any edge, and before duplicate vertices
            (["a", "a", 3], [["a"]], "vertex label must be a string: 3"),
            # a duplicate vertex before any edge error
            (["a", "b", "a"], [["a", "z"], ["b", "b"]], "duplicate vertex label 'a'"),
            # edge shapes before a duplicate vertex
            (["a", "b", "a"], [["a", "b"], ["a"]], "edge must be a pair: ['a']"),
        ],
        ids=[
            "loop-first", "unknown-first", "duplicate-first", "unknown-after-good",
            "endpoint-before-pair", "pair-before-endpoint", "shape-before-lookup",
            "vertex-types-first", "duplicate-vertex-before-edges", "shape-before-duplicate-vertex",
        ],
    )
    def test_json_first_offender(self, vertices, edges, message):
        with pytest.raises(GraphInputError) as err:
            graph_from_json_dict({"vertices": vertices, "edges": edges})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (["a", "b"], [("a", "z")], "edge endpoint 'z' is not a listed vertex"),
            (["a", "b"], [("y", "z")], "edge endpoint 'y' is not a listed vertex"),
            (["a", "b"], [("b", "b")], "loop edge at 'b' (simple graphs only)"),
            (["a", "b"], [("b", "a"), ("a", "b")], "duplicate edge 'a'-'b'"),
            (["b", "a"], [("b", "a"), ("a", "b")], "duplicate edge 'b'-'a'"),
            (["a", "b", "a"], [("a", "z")], "duplicate vertex label 'a'"),
            (["a", "b", "c"], [("a", "b"), ("c", "b"), ("b", "c"), ("a", "a")], "duplicate edge 'b'-'c'"),
            (["a", "b", "c"], [("a", "b"), ("c", "c"), ("b", "z")], "loop edge at 'c' (simple graphs only)"),
            # labels are converted with str() before they are looked up
            ([1, 2], [(1, 3)], "edge endpoint '3' is not a listed vertex"),
            ([1, 2, "1"], [], "duplicate vertex label '1'"),
        ],
        ids=[
            "unknown-head", "unknown-tail-first", "loop", "duplicate-edge", "duplicate-edge-vertex-order",
            "duplicate-vertex", "mixed-duplicate", "mixed-loop", "str-endpoint", "str-vertex",
        ],
    )
    def test_graph_message(self, vertices, edges, message):
        with pytest.raises(GraphInputError) as err:
            Graph(vertices, edges)
        assert str(err.value) == message

    def test_graph_converts_labels_with_str(self):
        g = Graph([1, 2, 3], [(2, 1), ("3", 2)])
        assert g.vertices == ("1", "2", "3")
        assert g.edges == (("1", "2"), ("2", "3"))

    def test_edges_in_canonical_order(self):
        # each edge from its earlier vertex, edges by (earlier, later) input position
        g = graph_from_json_dict({"vertices": ["c", "a", "b"], "edges": [["b", "a"], ["a", "c"], ["b", "c"]]})
        assert g.edges == (("c", "a"), ("c", "b"), ("a", "b"))


# ---------------------------------------------------------------------------
# Neighborhoods and the precedence relation


class TestNeighborhoods:
    def test_pentagon_open(self):
        g = pentagon()
        open_n, closed_n = g.open_neighborhood("a"), closed_neighborhood(g, "a")
        assert open_n == {"b", "e"}
        assert closed_n == {"a", "b", "e"}

    def test_isolated_vertex(self):
        g = discrete_graph(3)
        open_n, closed_n = g.open_neighborhood("v2"), closed_neighborhood(g, "v2")
        assert open_n == frozenset()
        assert closed_n == {"v2"}

    def test_k2_closed(self):
        g = complete_graph(2)
        assert closed_neighborhood(g, "v1") == {"v1", "v2"}

    def test_unknown_vertex(self):
        with pytest.raises(GraphInputError):
            pentagon().open_neighborhood("z")
        with pytest.raises(GraphInputError):
            closed_neighborhood(pentagon(), "z")


class TestPrec:
    def test_chain_pair_below_triple(self):
        g = loop_end_chain()
        assert prec(g, "a1", "b1")
        assert not prec(g, "b1", "a1")

    def test_reflexive(self):
        g = loop_end_chain()
        assert all(prec(g, v, v) for v in g.vertices)

    def test_pentagon_incomparable(self):
        g = pentagon()
        # open(a) = {b, e} is not inside closed(b) = {a, b, c}
        assert not prec(g, "a", "b")
        assert all(not prec(g, x, y) for x in g.vertices for y in g.vertices if x != y)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_reflexive_and_transitive(self, g):
        verts = g.vertices
        rel = {(a, b) for a in verts for b in verts if prec(g, a, b)}
        for v in verts:
            assert (v, v) in rel
        for a, b in rel:
            for c in verts:
                if (b, c) in rel:
                    assert (a, c) in rel

    def test_reflexive_and_transitive_up_to_eight_vertices(self):
        rng = random.Random(888)
        for _ in range(120):
            g = random_graph(rng, max_vertices=8)
            verts = g.vertices
            rel = {(a, b) for a in verts for b in verts if prec(g, a, b)}
            assert all((v, v) in rel for v in verts)
            for a, b in rel:
                for c in verts:
                    if (b, c) in rel:
                        assert (a, c) in rel


# ---------------------------------------------------------------------------
# Coherent components


def brute_force_classes(g):
    """Independent oracle: equivalence classes of mutual containment, by definition."""
    verts = g.vertices
    classes = []
    for v in verts:
        placed = False
        for cls in classes:
            w = cls[0]
            if (
                g.open_neighborhood(v) <= closed_neighborhood(g, w)
                and g.open_neighborhood(w) <= closed_neighborhood(g, v)
            ):
                cls.append(v)
                placed = True
                break
        if not placed:
            classes.append([v])
    return {frozenset(c) for c in classes}


class TestCoherentComponents:
    def test_loop_end_chain(self):
        part = coherent_components(loop_end_chain())
        assert part.component_sizes() == (2, 3, 2)
        assert part.components[0] == ("a1", "a2")
        assert part.components[1] == ("b1", "b2", "b3")
        assert part.components[2] == ("c1", "c2")
        assert part.order_pairs == {(0, 1)}
        assert part.loops == (False, True, False)
        assert part.quotient_edges == ((0, 2), (1, 2))

    def test_all_loops_chain(self):
        part = coherent_components(all_loops_chain())
        assert part.component_sizes() == (2, 3, 2)
        assert part.loops == (True, True, True)
        assert part.order_pairs == {(0, 2), (1, 2)}

    def test_four_cycle(self):
        part = coherent_components(cycle_graph(4))
        assert part.component_sizes() == (2, 2)
        assert set(part.components[0]) == {"v1", "v3"}
        assert set(part.components[1]) == {"v2", "v4"}
        assert part.kinds == ("discrete", "discrete")
        assert part.quotient_edges == ((0, 1),)
        assert part.loops == (False, False)

    def test_four_pair_chain(self):
        part = coherent_components(four_pair_chain())
        assert part.component_sizes() == (2, 2, 2, 2)
        assert part.order_pairs == {(0, 3), (1, 2)}
        assert part.quotient_edges == ((0, 2), (1, 3), (2, 3))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        part = coherent_components(g)
        assert {frozenset(c) for c in part.components} == brute_force_classes(g)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_classes_complete_or_discrete(self, g):
        part = coherent_components(g)
        for comp in part.components:
            pairs = list(itertools.combinations(comp, 2))
            present = [has_edge(g, u, v) for u, v in pairs]
            assert all(present) or not any(present)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_cross_adjacency_all_or_nothing(self, g):
        part = coherent_components(g)
        for ci, cj in itertools.combinations(part.components, 2):
            present = [has_edge(g, u, v) for u in ci for v in cj]
            assert all(present) or not any(present)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_topological_enumeration(self, g):
        part = coherent_components(g)
        for i, j in part.order_pairs:
            assert i <= j

    @given(st.one_of(graphs(max_vertices=8), blowups()))
    @settings(max_examples=150, deadline=None)
    def test_matches_smallest_ready_index_loop(self, g):
        part = coherent_components(g)
        components, order_pairs, quotient_edges = smallest_ready_index_components(g)
        assert part.components == components
        assert part.order_pairs == order_pairs
        assert part.quotient_edges == quotient_edges


def smallest_ready_index_components(graph):
    """`coherent_components` as it was: classes, then an O(k^3) topological loop that
    repeatedly takes the smallest index with no remaining predecessor."""
    verts = graph.vertices
    open_n = {v: graph.open_neighborhood(v) for v in verts}
    closed_n = {v: open_n[v] | {v} for v in verts}
    prec_pairs = {(a, b) for a in verts for b in verts if open_n[a] <= closed_n[b]}
    raw, assigned = [], set()
    for v in verts:
        if v in assigned:
            continue
        comp = [v] + [
            w for w in verts
            if w not in assigned and w != v and (v, w) in prec_pairs and (w, v) in prec_pairs
        ]
        assigned.update(comp)
        raw.append(comp)
    k = len(raw)
    strict = {(i, j) for i in range(k) for j in range(k) if i != j and (raw[i][0], raw[j][0]) in prec_pairs}
    remaining, order = set(range(k)), []
    while remaining:
        ready = [i for i in remaining if not any((j, i) in strict for j in remaining if j != i)]
        order.append(min(ready))
        remaining.remove(order[-1])
    relabel = {old: new for new, old in enumerate(order)}
    components = tuple(tuple(raw[old]) for old in order)
    quotient_edges = tuple(
        (i, j) for i in range(k) for j in range(i + 1, k)
        if has_edge(graph, components[i][0], components[j][0])
    )
    return components, {(relabel[i], relabel[j]) for i, j in strict}, quotient_edges


def seeded_graph(rng, max_vertices=40):
    """A graph of up to max_vertices vertices: complete, empty, random, or a blow-up of a
    random base with twin classes of both kinds and isolated vertices; vertices and edges
    listed in shuffled order, each edge in either direction."""
    shape = rng.choice(["complete", "empty", "random", "blowup", "blowup", "blowup"])
    n = rng.randint(1, max_vertices)
    if shape in ("complete", "empty", "random"):
        labels = [f"v{i}" for i in range(n)]
        density = {"complete": 1.0, "empty": 0.0, "random": rng.random()}[shape]
        edges = [e for e in itertools.combinations(labels, 2) if rng.random() < density]
    else:
        classes, total = [], 0
        while total < n:
            size = min(rng.randint(1, 4), n - total)
            classes.append([f"c{len(classes)}_{t}" for t in range(size)])
            total += size
        k = len(classes)
        density = rng.random()
        edges = [
            (u, v)
            for i, j in itertools.combinations(range(k), 2)
            if rng.random() < density
            for u in classes[i]
            for v in classes[j]
        ]
        for cls in classes:
            if rng.random() < 0.5:
                edges.extend(itertools.combinations(cls, 2))
        labels = [v for cls in classes for v in cls]
        labels += [f"iso{t}" for t in range(rng.randint(0, 3))]
    rng.shuffle(labels)
    rng.shuffle(edges)
    return Graph(labels, [e[::-1] if rng.random() < 0.5 else e for e in edges])


class TestMatchesLabelOracles:
    """The bitmask graph layer against the label-frozenset code it replaced."""

    def test_coherent_components(self):
        rng = random.Random(2037)
        fields = ("components", "kinds", "order_pairs", "quotient_edges", "member_positions", "component_of")
        for _ in range(2000):
            g = seeded_graph(rng)
            part, expected = coherent_components(g), label_coherent_components(g)
            assert {f: getattr(part, f) for f in fields} == expected, g.to_json_dict()

    def test_is_graph_automorphism(self):
        rng = random.Random(3037)
        verdicts = []
        for _ in range(400):
            g = seeded_graph(rng, max_vertices=24)
            domain = list(g.vertices)
            # a shuffle inside every coherent component is an automorphism
            inside = {}
            for comp in label_coherent_components(g)["components"]:
                images = list(comp)
                rng.shuffle(images)
                inside.update(zip(comp, images))
            anywhere = dict(zip(domain, rng.sample(domain, len(domain))))
            a, b = rng.choice(domain), rng.choice(domain)
            swap = {**{v: v for v in domain}, a: b, b: a}
            for mapping in (inside, anywhere, swap):
                reordered = rng.sample(domain, len(domain))
                for on in (domain, reordered):
                    p = VertexPermutation(on, mapping)
                    verdict = is_graph_automorphism(g, p)
                    assert verdict == label_is_graph_automorphism(g, p), (g.to_json_dict(), p)
                    verdicts.append(verdict)
        assert verdicts.count(True) > 800 and verdicts.count(False) > 200


# ---------------------------------------------------------------------------
# Automorphisms and precedence preservation


class TestAutomorphism:
    def test_pentagon_rotation(self):
        g = pentagon()
        rot = VertexPermutation.from_cycles("(a b c d e)", g.vertices)
        assert is_graph_automorphism(g, rot)

    def test_bipartite_swap(self):
        g = complete_bipartite(3, 3)
        swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        # oracle: check all nine edges directly
        assert all(has_edge(g, swap(u), swap(v)) for u, v in g.edges)
        assert is_graph_automorphism(g, swap)

    def test_four_cycle_transposition_fails(self):
        g = cycle_graph(4)
        t = VertexPermutation.from_cycles("(v1 v2)", g.vertices)
        assert not is_graph_automorphism(g, t)  # v1-v4 maps to the non-edge v2-v4

    def test_wrong_domain(self):
        g = pentagon()
        p = VertexPermutation.identity(["x", "y"])
        with pytest.raises(PermutationError):
            is_graph_automorphism(g, p)


class TestPreservesPrec:
    def test_pentagon_all_transpositions(self):
        g = pentagon()
        for pair in itertools.combinations(g.vertices, 2):
            t = VertexPermutation.from_cycles(f"({pair[0]} {pair[1]})", g.vertices)
            assert preserves_prec(g, t)

    def test_identity(self):
        g = loop_end_chain()
        assert preserves_prec(g, VertexPermutation.identity(g.vertices))

    def test_component_moving_map_fails(self):
        g = loop_end_chain()
        # sends the a-pair off itself
        p = VertexPermutation.from_cycles("(a1 b1)", g.vertices)
        assert not preserves_prec(g, p)

    def test_pentagon_full_symmetric_group(self):
        g = pentagon()
        assert all(
            preserves_prec(g, VertexPermutation(g.vertices, dict(zip(g.vertices, perm))))
            for perm in itertools.permutations(g.vertices)
        )

    @given(graphs(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_automorphisms_preserve_prec(self, g):
        for perm in itertools.permutations(g.vertices):
            p = VertexPermutation(g.vertices, dict(zip(g.vertices, perm)))
            if is_graph_automorphism(g, p):
                assert preserves_prec(g, p)

    def test_pentagon_transposition_not_automorphism(self):
        g = pentagon()
        t = VertexPermutation.from_cycles("(a b)", g.vertices)
        assert preserves_prec(g, t) and not is_graph_automorphism(g, t)


class TestInducedComponentPermutation:
    def test_bipartite_swap(self):
        g = complete_bipartite(3, 3)
        part = coherent_components(g)
        swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        assert induced_component_permutation(part, swap) == (1, 0)

    def test_identity(self):
        part = coherent_components(loop_end_chain())
        g = loop_end_chain()
        assert induced_component_permutation(part, VertexPermutation.identity(g.vertices)) == (0, 1, 2)

    def test_four_pair_chain_swap(self):
        part = coherent_components(four_pair_chain())
        sigma = four_pair_chain_swap()
        assert induced_component_permutation(part, sigma) == (1, 0, 3, 2)

    def test_functorial(self):
        g = complete_bipartite(3, 3)
        part = coherent_components(g)
        p = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        q = VertexPermutation.from_cycles("(a1 a2 a3)", g.vertices)
        ip = induced_component_permutation(part, p)
        iq = induced_component_permutation(part, q)
        ipq = induced_component_permutation(part, p * q)
        assert ipq == tuple(ip[iq[i]] for i in range(len(iq)))

    def test_non_component_map_rejected(self):
        g = pentagon()
        part = coherent_components(cycle_graph(4))
        with pytest.raises((PreconditionViolation, PermutationError)):
            induced_component_permutation(part, VertexPermutation.identity(g.vertices))

    def test_split_component_rejected(self):
        # (a1 c1) sends component 1 = {a1, a2} to {c1, a2}: the first member
        # lands in a component of the same size, the second does not
        g = loop_end_chain()
        part = coherent_components(g)
        for domain in (g.vertices, g.vertices[::-1]):
            p = VertexPermutation.from_cycles("(a1 c1)", domain)
            with pytest.raises(PreconditionViolation, match="component 1 "):
                induced_component_permutation(part, p)


class TestComponentOrderGroup:
    def test_loop_end_chain_trivial(self):
        group = component_order_group(coherent_components(loop_end_chain()))
        assert group == [(0, 1, 2)]

    def test_all_loops_chain_order_two(self):
        group = component_order_group(coherent_components(all_loops_chain()))
        assert len(group) == 2
        assert (1, 0, 2) in group

    def test_single_component(self):
        group = component_order_group(coherent_components(complete_graph(4)))
        assert group == [(0,)]

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            component_order_group(coherent_components(pentagon()), max_components=3)


class TestVertexPermutation:
    def test_cycle_roundtrip(self):
        dom = ["a", "b", "c", "d", "e"]
        p = VertexPermutation.from_cycles("(a b)(c d e)", dom)
        assert p("a") == "b" and p("b") == "a" and p("c") == "d" and p("e") == "c"
        assert p.cycle_string() == "(a b)(c d e)"
        assert p.order() == 6

    def test_identity_forms(self):
        dom = ["a", "b"]
        assert is_identity(VertexPermutation.from_cycles("", dom))
        assert is_identity(VertexPermutation.from_cycles("()", dom))
        assert VertexPermutation.identity(dom).cycle_string() == "()"

    def test_identity_equals_the_mapping_built_identity(self):
        # built on positions, with no label mapping: the same permutation, on any listing of the domain
        rng = random.Random(11)
        for n in (0, 1, 2, 5, 120):
            dom = [f"v{i}" for i in range(n)]
            for order in (dom, dom[::-1], rng.sample(dom, n)):
                ident = VertexPermutation.identity(order)
                mapped = VertexPermutation(order, {v: v for v in order})
                assert ident == mapped and hash(ident) == hash(mapped)
                assert ident.domain == tuple(order) and ident.positions == tuple(range(n))
                assert all(ident(v) == v for v in order)
                assert ident * mapped == mapped * ident == mapped

    def test_identity_refuses_a_repeated_label(self):
        for dom in (["a", "a"], ["a", "b", "c", "b"], ("x", "y", "x")):
            with pytest.raises(PermutationError, match="^domain lists a vertex twice$"):
                VertexPermutation.identity(dom)

    def test_bad_cycles(self):
        dom = ["a", "b"]
        with pytest.raises(PermutationError):
            VertexPermutation.from_cycles("(a z)", dom)
        with pytest.raises(PermutationError):
            VertexPermutation.from_cycles("(a b)(b a)", dom)
        with pytest.raises(PermutationError):
            VertexPermutation.from_cycles("a b", dom)

    def test_parse_holonomy_generators(self):
        g = four_pair_chain()
        gens = parse_holonomy_generators("(a1 b1)(a2 b2)(c1 d1)(c2 d2);(a1 a2)", g)
        assert len(gens) == 2
        assert gens[0] == four_pair_chain_swap()

    def test_random_group_axioms(self):
        rng = random.Random(7)
        dom = [f"v{i}" for i in range(6)]
        for _ in range(50):
            perm = list(dom)
            rng.shuffle(perm)
            p = VertexPermutation(dom, dict(zip(dom, perm)))
            order = p.order()
            acc = VertexPermutation.identity(dom)
            for _ in range(order):
                acc = acc * p
            assert is_identity(acc)


def label_walk_cycles(p):
    """The walk `VertexPermutation.cycles` used to run: follow labels, rotate each cycle to its earliest."""
    position = {v: i for i, v in enumerate(p.domain)}
    seen, out = set(), []
    for v in p.domain:
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        w = p(v)
        while w != v:
            cycle.append(w)
            seen.add(w)
            w = p(w)
        if len(cycle) > 1:
            start = min(range(len(cycle)), key=lambda i: position[cycle[i]])
            out.append(tuple(cycle[start:] + cycle[:start]))
    return tuple(out)


@st.composite
def vertex_permutations(draw):
    # labels in an arbitrary domain order, so position order and label order differ
    domain = draw(st.lists(st.text("abcxyz19", min_size=1, max_size=3), unique=True, max_size=12))
    images = draw(st.permutations(domain))
    return VertexPermutation(domain, dict(zip(domain, images)))


@st.composite
def domains(draw):
    # labels such as v10 listed before v9, so string order, input order and
    # numeric order all differ; or short arbitrary labels
    numbered = st.lists(st.integers(1, 20), unique=True, max_size=12).map(lambda ns: [f"v{i}" for i in ns])
    return draw(st.one_of(numbered, st.lists(st.text("abcxyz19", min_size=1, max_size=3), unique=True, max_size=12)))


@st.composite
def permutation_pairs(draw):
    domain = draw(domains())
    p = dict(zip(domain, draw(st.permutations(domain))))
    q = dict(zip(domain, draw(st.permutations(domain))))
    return domain, p, q


class TestMatchesDictPermutation:
    """The position-based class against the label-dict one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(permutation_pairs())
    def test_operations(self, case):
        domain, p_map, q_map = case
        p, q = VertexPermutation(domain, p_map), VertexPermutation(domain, q_map)
        dp, dq = DictPermutation(domain, p_map), DictPermutation(domain, q_map)
        pairs = [
            (p, dp), (q, dq), (p * q, dp * dq), (q * p, dq * dp),
            (p * p, dp * dp), (p * q * p, dp * dq * dp),
        ]
        for new, old in pairs:
            assert [new(v) for v in domain] == [old(v) for v in domain]
            assert new.cycles() == old.cycles()
            assert new.cycle_string() == old.cycle_string()
            assert new.order() == old.order()
            assert is_identity(new) == old.is_identity
        assert (p == q) == (dp == dq)
        # a product built from positions equals, and hashes as, its mapping built from labels
        pq = p * q
        from_labels = VertexPermutation(domain, {v: pq(v) for v in domain})
        assert pq == from_labels and hash(pq) == hash(from_labels)
        # the same mapping on the domain listed in another order is another permutation
        other = domain[::-1]
        assert (VertexPermutation(other, p_map) == p) == (DictPermutation(other, p_map) == dp)

    def test_products_keep_domain_check(self):
        p = VertexPermutation.identity(["a", "b"])
        with pytest.raises(PermutationError):
            p * VertexPermutation.identity(["b", "a"])

    def test_outside_mappings_are_validated(self):
        with pytest.raises(PermutationError):
            VertexPermutation(["a", "b"], {"a": "a", "b": "a"})
        with pytest.raises(PermutationError):
            VertexPermutation(["a", "b"], {"a": "b", "b": "c"})
        with pytest.raises(PermutationError):
            VertexPermutation(["a", "a"], {"a": "a"})
        with pytest.raises(PermutationError):
            VertexPermutation.identity(["a"])("z")


class TestCycles:
    @settings(max_examples=300, deadline=None)
    @given(vertex_permutations())
    def test_matches_label_walk(self, p):
        expected = label_walk_cycles(p)
        assert p.cycles() == expected
        assert p.order() == lcm(1, *(len(c) for c in expected))

    def test_each_cycle_starts_at_its_earliest_domain_element(self):
        p = VertexPermutation(["d", "c", "b", "a"], {"d": "a", "a": "c", "c": "d", "b": "b"})
        assert p.cycles() == (("d", "a", "c"),)
        assert p.cycle_string() == "(d a c)" and p.order() == 3
