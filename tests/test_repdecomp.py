import cmath
import itertools
import random
from math import gcd

import pytest

from anosovgraph.fixtures import four_pair_chain, four_pair_chain_swap, pentagon
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    discrete_graph,
)
from anosovgraph.holonomy import build_action
from anosovgraph.repdecomp import (
    decide,
    decompose_cyclic_perm_rep,
    euler_phi,
    trivial_holonomy_check,
)


def action_for(graph, *cycle_strings):
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    return build_action(coherent_components(graph), gens)


def character_multiplicities(n, cycles):
    """Independent oracle: multiplicity of the divisor-e rational irreducible via
    complex character inner products of the cyclic group of order n."""
    perm_char = []
    for t in range(n):
        fixed = 0
        for c in cycles:
            # the generator acts as a c-cycle; its t-th power fixes the c points iff c | t
            fixed += c if t % c == 0 else 0
        perm_char.append(fixed)
    mult = {}
    for e in range(1, n + 1):
        if n % e:
            continue
        # any single primitive character of order e; Galois-conjugates share multiplicity
        k = n // e
        inner = sum(
            perm_char[t] * cmath.exp(-2j * cmath.pi * k * t / n) for t in range(n)
        ) / n
        assert abs(inner.imag) < 1e-9
        mult[e] = round(inner.real)
    return mult


class TestEulerPhi:
    def test_values(self):
        assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


class TestDecomposition:
    def test_regular_rep_order_two(self):
        d = decompose_cyclic_perm_rep(2, [2])
        assert [(p.divisor, p.multiplicity, p.q_dimension, p.real_splits) for p in d] == [
            (1, 1, 1, 1),
            (2, 1, 1, 1),
        ]

    def test_four_cycle(self):
        d = decompose_cyclic_perm_rep(4, [4])
        assert [(p.divisor, p.multiplicity, p.q_dimension, p.real_splits) for p in d] == [
            (1, 1, 1, 1),
            (2, 1, 1, 1),
            (4, 1, 2, 1),
        ]

    def test_trivial_group(self):
        d = decompose_cyclic_perm_rep(1, [1, 1, 1])
        assert [(p.divisor, p.multiplicity, p.q_dimension, p.real_splits) for p in d] == [
            (1, 3, 1, 1)
        ]

    def test_cycle_must_divide(self):
        with pytest.raises(ValueError):
            decompose_cyclic_perm_rep(4, [3])

    def test_dimension_sum(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 12)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            cycles = [rng.choice(divisors) for _ in range(rng.randint(1, 5))]
            d = decompose_cyclic_perm_rep(n, cycles)
            assert sum(p.multiplicity * p.q_dimension for p in d) == sum(cycles)

    def test_matches_character_oracle(self):
        rng = random.Random(29)
        for _ in range(80):
            n = rng.randint(1, 12)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            cycles = [rng.choice(divisors) for _ in range(rng.randint(1, 5))]
            d = decompose_cyclic_perm_rep(n, cycles)
            oracle = character_multiplicities(n, cycles)
            ours = {p.divisor: p.multiplicity for p in d}
            for e, m in oracle.items():
                assert ours.get(e, 0) == m

    def test_real_split_closed_form(self):
        d = decompose_cyclic_perm_rep(12, [12, 6, 1])
        for p in d:
            if p.divisor <= 2:
                assert p.real_splits == 1
            else:
                assert p.real_splits == euler_phi(p.divisor) // 2

    def test_generator_choice_invariance(self):
        # replacing the generator of a cyclic group by another generator keeps
        # the cycle type, hence the decomposition
        for n in (4, 5, 6, 8, 9):
            base = list(range(n))
            cycle = tuple((i + 1) % n for i in base)  # one n-cycle
            for k in range(1, n):
                if gcd(k, n) != 1:
                    continue
                # cycle type of the k-th power of an n-cycle
                g = gcd(k, n)
                cycles = [n // g] * g
                assert (
                    decompose_cyclic_perm_rep(n, cycles)
                    == decompose_cyclic_perm_rep(n, [n])
                )


class TestOrbitVerdict:
    def test_bipartite_swap_passes(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        v = decide(action).orbits[0]
        assert v.passed is True
        assert v.orbit.c == 2
        assert [(p.divisor, p.multiplicity) for p in v.parts] == [(1, 3)]

    def test_heisenberg_fails(self):
        g = complete_graph(2)
        action = action_for(g)
        v = decide(action).orbits[0]
        assert v.passed is False
        assert v.orbit.c == 2
        assert (v.failing_part.divisor, v.failing_part.multiplicity) == (1, 2)

    def test_four_cycle_rotation_fails(self):
        g = cycle_graph(4)
        action = action_for(g, "(v1 v2 v3 v4)")
        v = decide(action).orbits[0]
        assert v.passed is False
        assert v.orbit.c == 2
        assert (v.failing_part.divisor, v.failing_part.multiplicity, v.failing_part.real_splits) == (1, 1, 1)

    def test_non_cyclic_stabilizer_undecided(self):
        g = discrete_graph(4)
        action = action_for(g, "(v1 v2)", "(v3 v4)")
        v = decide(action).orbits[0]
        assert v.passed is None
        assert "not cyclic" in v.reason


class TestDecide:
    def test_single_vertex_no(self):
        action = action_for(discrete_graph(1))
        assert decide(action).verdict == "no"

    def test_bipartite_with_swap_yes(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        decision = decide(action)
        assert decision.verdict == "yes"
        assert decision.realizability == "guaranteed"

    def test_complete_graphs_trivial_holonomy(self):
        for n in range(1, 7):
            action = action_for(complete_graph(n))
            assert decide(action).verdict == ("yes" if n >= 3 else "no")

    def test_four_pair_chain_swap_no(self):
        action = action_for(four_pair_chain(), "(a1 b1)(a2 b2)(c1 d1)(c2 d2)")
        decision = decide(action)
        assert decision.verdict == "no"
        failing = [v for v in decision.orbits if v.passed is False]
        assert len(failing) == 1
        assert failing[0].orbit.c == 2  # the inner c/d orbit

    def test_undecided_aggregation(self):
        g = discrete_graph(4)
        action = action_for(g, "(v1 v2)", "(v3 v4)")
        decision = decide(action)
        assert decision.verdict == "undecided"
        assert decision.realizability == "unknown"

    def test_json_shape(self):
        action = action_for(complete_bipartite(3, 3), "(a1 b1)(a2 b2)(a3 b3)")
        blob = decide(action).to_json_dict()
        assert set(blob) == {"verdict", "orbits", "realizability"}
        assert set(blob["orbits"][0]) == {"rep", "c", "parts", "pass", "reason"}
        assert set(blob["orbits"][0]["parts"][0]) == {"e", "m", "dim", "splits"}


class TestTrivialHolonomyCheck:
    def test_loop_end_chain_yes(self):
        from anosovgraph.fixtures import loop_end_chain

        assert trivial_holonomy_check(coherent_components(loop_end_chain())).verdict == "yes"

    def test_heisenberg_no(self):
        assert trivial_holonomy_check(coherent_components(complete_graph(2))).verdict == "no"

    def test_two_torus_yes(self):
        assert trivial_holonomy_check(coherent_components(discrete_graph(2))).verdict == "yes"

    def test_pentagon_no(self):
        assert trivial_holonomy_check(coherent_components(pentagon())).verdict == "no"

    def test_equivalence_random(self):
        rng = random.Random(101)
        for _ in range(150):
            n = rng.randint(1, 8)
            labels = [f"v{i}" for i in range(1, n + 1)]
            edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.4]
            g = Graph(labels, edges)
            part = coherent_components(g)
            decision = decide(build_action(part, []))
            oracle = trivial_holonomy_check(part)
            assert [v.passed for v in decision.orbits] == list(oracle.passed)
            assert decision.verdict == oracle.verdict


class TestInvariance:
    def test_verdict_invariant_under_relabeling(self):
        rng = random.Random(55)
        g = four_pair_chain()
        sigma = four_pair_chain_swap()
        base = decide(build_action(coherent_components(g), [sigma])).verdict
        labels = list(g.vertices)
        for _ in range(10):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            rename = dict(zip(labels, shuffled))
            g2 = Graph([rename[v] for v in labels], [(rename[u], rename[v]) for u, v in g.edges])
            # note: vertex order of g2 follows the shuffled positions
            sigma2 = VertexPermutation(
                g2.vertices, {rename[v]: rename[sigma(v)] for v in labels}
            )
            got = decide(build_action(coherent_components(g2), [sigma2])).verdict
            assert got == base

    def test_monotone_in_component_growth(self):
        # growing the acted-on set by a fixed point or by repeating an existing
        # cycle length never flips pass -> fail for fixed c (a brand-new cycle
        # length can introduce a fresh low-multiplicity summand and genuinely
        # flip the criterion, so only these growth moves are monotone)
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(1, 10)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            cycles = [rng.choice(divisors) for _ in range(rng.randint(1, 4))]
            bigger = cycles + [rng.choice(cycles + [1])]
            for c in (1, 2):
                small_pass = all(
                    p.multiplicity * p.real_splits > c
                    for p in decompose_cyclic_perm_rep(n, cycles)
                )
                big_pass = all(
                    p.multiplicity * p.real_splits > c
                    for p in decompose_cyclic_perm_rep(n, bigger)
                )
                if small_pass:
                    assert big_pass
