import itertools
import json
import random
from dataclasses import replace

import pytest

import anosovgraph.hyperbolicity as hyperbolicity_module
import anosovgraph.witness as witness_module
from anosovgraph.errors import (
    OperationCancelled,
    PreconditionViolation,
    SeedSearchExhausted,
    WitnessAssemblyError,
    WitnessRefused,
)
from anosovgraph.exactmat import RationalMatrix
from anosovgraph.families import family_I
from anosovgraph.fixtures import four_pair_chain, four_pair_chain_swap
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
from anosovgraph.hyperbolicity import CancelToken, char_poly, is_c_hyperbolic, is_integer_like
from anosovgraph.liealg import build_algebra, extend_to_algebra, is_algebra_automorphism
from anosovgraph.polynomials import IntPolynomial, companion_rows
from anosovgraph.repdecomp import decide
from anosovgraph.witness import (
    CAT_MAP_ROWS,
    OrbitSeedPlan,
    assemble_witness,
    build_witness,
    choose_exponents,
    commutant_pair_orbits,
    find_seed,
    log_modulus_bounds,
    plan_blocks,
    seed_catalog,
)

from tests_support_oracles import permutation_matrix

CUBIC = IntPolynomial((1, -2, -1, 1))


def action_for(graph, *cycle_strings):
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    return build_action(graph, coherent_components(graph), gens)


class TestSeedSearch:
    def test_dim2_c1_cat_map_first(self):
        seed, cert = find_seed(2, 1)
        assert seed == CAT_MAP_ROWS
        assert cert.valid and cert.char_poly == IntPolynomial((1, -3, 1))

    def test_dim3_c2_cubic_companion(self):
        seed, cert = find_seed(3, 2)
        assert seed == companion_rows(CUBIC)
        assert cert.valid
        assert cert.compound_char_poly == IntPolynomial((-1, -1, 2, 1))

    def test_dim2_c2_exhausts(self):
        # any 2x2 integer-like matrix has |det| = 1, so the pair product is
        # always on the unit circle; the full bounded search must come up empty
        with pytest.raises(SeedSearchExhausted) as exc_info:
            find_seed(2, 2)
        err = exc_info.value
        assert err.entry_bound == 3
        assert err.candidates_tried > 2000  # full (2*3+1)^4 space was scanned

    def test_dims_four_and_five(self):
        for dim in (4, 5):
            seed, cert = find_seed(dim, 2)
            assert cert.valid
            assert is_integer_like(char_poly(seed))

    def test_seed_commutes_with_uniform_stabilizer(self):
        # order-2 action with two 2-cycles on four points
        perm = (1, 0, 3, 2)
        seed, cert = find_seed(4, 1, perm)
        assert cert.valid
        assert all(seed[perm[i]][perm[j]] == seed[i][j] for i in range(4) for j in range(4))

    def test_commutant_orbits(self):
        orbits = commutant_pair_orbits((1, 0))
        assert orbits == [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]

    def test_catalog_stream_deterministic(self):
        first = list(itertools.islice(seed_catalog(3), 12))
        second = list(itertools.islice(seed_catalog(3), 12))
        assert first == second

    @pytest.mark.parametrize("dim, c", [(2, 1), (3, 2), (4, 2)])
    def test_one_char_poly_per_candidate(self, monkeypatch, dim, c):
        candidates, calls = [], []
        real_catalog, real_char_poly = witness_module.seed_catalog, hyperbolicity_module.char_poly

        def counting_catalog(*args):
            for rows in real_catalog(*args):
                candidates.append(rows)
                yield rows

        def counting_char_poly(m, cancel=None):
            calls.append(m)
            return real_char_poly(m, cancel)

        monkeypatch.setattr(witness_module, "seed_catalog", counting_catalog)
        monkeypatch.setattr(witness_module, "char_poly", counting_char_poly)
        monkeypatch.setattr(hyperbolicity_module, "char_poly", counting_char_poly)
        _, cert = find_seed(dim, c)
        assert cert.valid and len(calls) == len(candidates)

    def test_cancel(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(OperationCancelled):
            find_seed(3, 2, cancel=token)


class TestChooseExponents:
    def test_single_orbit(self):
        assert choose_exponents([(0.9, 0.9)]) == (1,)

    def test_identical_pair(self):
        lo, hi = log_modulus_bounds(IntPolynomial((1, -3, 1)))
        assert choose_exponents([(lo, hi), (lo, hi)]) == (1, 2)

    def test_three_identical(self):
        lo, hi = log_modulus_bounds(IntPolynomial((1, -3, 1)))
        ks = choose_exponents([(lo, hi)] * 3)
        assert ks == (1, 2, 6)
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(PreconditionViolation):
            choose_exponents([(0.0, 1.0)])

    def test_separation_inequality(self):
        rng = random.Random(3)
        for _ in range(50):
            bounds = [(rng.uniform(0.1, 1.0), rng.uniform(1.0, 2.0)) for _ in range(4)]
            ks = choose_exponents(bounds)
            acc = 0.0
            for (lo, hi), k in zip(bounds, ks):
                if acc > 0:
                    assert k * lo > acc  # strict separation from everything before
                acc += k * hi


class TestLogBounds:
    def test_cat_map(self):
        lo, hi = log_modulus_bounds(IntPolynomial((1, -3, 1)))
        assert lo == pytest.approx(0.9624, abs=1e-3)
        assert hi == pytest.approx(0.9624, abs=1e-3)

    def test_cubic(self):
        lo, hi = log_modulus_bounds(CUBIC)
        assert lo == pytest.approx(0.2206, abs=1e-3)
        assert hi == pytest.approx(0.8097, abs=1e-3)


class TestBuildWitness:
    def test_bipartite_swap_end_to_end(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        alg = build_algebra(g)
        w = build_witness(action, alg)
        full = RationalMatrix(w.full_matrix)
        assert full.shape == (15, 15)
        # (a) certified algebra automorphism
        assert is_algebra_automorphism(alg, w.full_matrix)
        # (b) exact commutation with the extended generator
        ext = extend_to_algebra(alg, permutation_matrix(g, action.generators[0]))
        assert full * ext == ext * full
        # (c) integer-like and no unit-circle roots
        assert is_integer_like(w.full_char_poly)
        assert w.certificate.valid

    def test_torus_case_is_cat_map(self):
        g = discrete_graph(2)
        action = action_for(g)
        w = build_witness(action)
        assert RationalMatrix(w.full_matrix).int_rows() == CAT_MAP_ROWS
        assert w.v_char_poly == IntPolynomial((1, -3, 1))

    def test_conjugated_blocks_share_char_poly(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        w = build_witness(action)
        rows = RationalMatrix(w.v_matrix).int_rows()
        block_a = [row[:3] for row in rows[:3]]
        block_b = [row[3:] for row in rows[3:]]
        assert char_poly(block_a) == char_poly(block_b)

    def test_nontrivial_stabilizer_instance(self):
        # a triangle plus four isolated vertices; the order-2 symmetry fixes
        # both components, acting trivially on one and by double swap on the other
        g = Graph(
            ["a", "b", "c", "d", "e", "f", "h"],
            [("a", "b"), ("a", "c"), ("b", "c")],
        )
        action = action_for(g, "(d e)(f h)")
        assert decide(action).verdict == "yes"
        stab_orders = [o.stabilizer.order for o in action.orbits]
        assert stab_orders == [2, 2]
        w = build_witness(action)
        assert w.certificate.valid
        alg = build_algebra(g)
        assert is_algebra_automorphism(alg, w.full_matrix)

    def test_refuses_failing_instance(self):
        action = action_for(four_pair_chain(), "(a1 b1)(a2 b2)(c1 d1)(c2 d2)")
        assert decide(action).verdict == "no"
        with pytest.raises(WitnessRefused):
            build_witness(action)

    def test_refuses_undecided_instance(self):
        g = discrete_graph(4)
        action = action_for(g, "(v1 v2)", "(v3 v4)")
        assert decide(action).verdict == "undecided"
        with pytest.raises(WitnessRefused):
            build_witness(action)

    def test_exponent_retry_reuses_seeds(self, monkeypatch):
        # all-ones exponents at the first margin fail the hyperbolicity stage;
        # the retry must recompute only the exponents, not search seeds again
        inst = family_I(3, (2, 2, 3))
        action = build_action(inst.graph, coherent_components(inst.graph), inst.generators)
        margins, seed_searches = [], []
        real_choose, real_find = witness_module.choose_exponents, witness_module.find_seed

        def choose(bounds, margin=2.0):
            margins.append(margin)
            ks = real_choose(bounds, margin)
            return (1,) * len(ks) if margin == 2.0 else ks

        def find(*args, **kwargs):
            seed_searches.append(args)
            return real_find(*args, **kwargs)

        monkeypatch.setattr(witness_module, "choose_exponents", choose)
        monkeypatch.setattr(witness_module, "find_seed", find)
        w = build_witness(action)
        assert margins == [2.0, 4.0]
        assert tuple(p.exponent for p in w.plan) == (1, 4, 88)
        assert w.certificate.valid
        assert is_algebra_automorphism(build_algebra(inst.graph), w.full_matrix)
        assert len(seed_searches) == 3  # one per orbit

    def test_json_and_text_exports(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        w = build_witness(action)
        blob = w.to_json_dict()
        assert len(blob["full_matrix"]) == 15
        assert blob["v_char_poly"] == list(w.v_char_poly.coefficients)
        json.dumps(blob)  # serializable
        text = w.to_text()
        assert "integer-like" in text
        assert "bracket preservation" in text


class TestAssembleGuard:
    def make_dummy_plan(self, action):
        plans = []
        for orbit in action.orbits:
            dim = len(action.partition.components[orbit.rep])
            seed = tuple(tuple(int(i == j) * 2 - int(j == (i + 1) % dim) for j in range(dim)) for i in range(dim))
            plans.append(
                OrbitSeedPlan(
                    orbit_rep=orbit.rep,
                    seed=seed,
                    exponent=1,
                    certificate=None,
                    conjugators=tuple(
                        (
                            member,
                            next(
                                h
                                for h in action.elements
                                if action.component_action[h][orbit.rep] == member
                            ),
                        )
                        for member in orbit.members
                        if member != orbit.rep
                    ),
                )
            )
        return tuple(plans)

    def test_guard_refuses_on_random_instances(self):
        # random graphs plus an automorphism drawn from rotations of generated
        # component structures; whenever decide != yes, assemble must refuse
        rng = random.Random(2024)
        refused = 0
        attempted = 0
        for _ in range(200):
            n = rng.randint(1, 7)
            labels = [f"v{i}" for i in range(1, n + 1)]
            edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.4]
            g = Graph(labels, edges)
            action = build_action(g, coherent_components(g), [])
            verdict = decide(action).verdict
            attempted += 1
            if verdict != "yes":
                with pytest.raises(WitnessRefused):
                    assemble_witness(action, self.make_dummy_plan(action))
                refused += 1
        assert attempted == 200
        assert refused > 50  # random sparse graphs mostly fail the criterion

    def test_guard_on_symmetric_instances(self):
        rng = random.Random(77)
        cases = 0
        for n in (4, 5, 6, 7, 8):
            g = cycle_graph(n)
            rot = VertexPermutation.from_cycles("(" + " ".join(g.vertices) + ")", g.vertices)
            action = build_action(g, coherent_components(g), [rot])
            if decide(action).verdict != "yes":
                with pytest.raises(WitnessRefused):
                    assemble_witness(action, self.make_dummy_plan(action))
                cases += 1
        assert cases >= 4

    def test_bad_plan_rejected_on_yes_instance(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        plan = plan_blocks(action)
        # break the seed: identity is not hyperbolic
        broken = (
            OrbitSeedPlan(
                orbit_rep=plan[0].orbit_rep,
                seed=tuple(tuple(int(i == j) for j in range(3)) for i in range(3)),
                exponent=1,
                certificate=None,
                conjugators=plan[0].conjugators,
            ),
        )
        with pytest.raises(WitnessAssemblyError):
            assemble_witness(action, broken)

    @pytest.mark.parametrize("defect", ["conjugator omitted", "singular seed"])
    def test_plan_leaving_v_singular_fails_at_extension(self, defect):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        (orbit_plan,) = plan_blocks(action)
        if defect == "conjugator omitted":  # the other part's component gets no block
            orbit_plan = replace(orbit_plan, conjugators=())
        else:
            orbit_plan = replace(orbit_plan, seed=((1, 1, 0), (1, 1, 0), (0, 0, 1)), exponent=1)
        with pytest.raises(WitnessAssemblyError) as err:
            assemble_witness(action, (orbit_plan,))
        assert err.value.stage == "extension"
        assert "not invertible" in str(err.value)


class TestFamilyRegression:
    def test_witnesses_for_paper_families_at_default_bounds(self):
        from anosovgraph.families import family_I, family_II, family_II_z4

        instances = [
            family_I(1, (3,)),
            family_I(2, (2, 3)),
            family_I(3, (2, 2, 3)),
            family_II(3),
            family_II_z4(3),
        ]
        for inst in instances:
            action = build_action(
                inst.graph, coherent_components(inst.graph), inst.generators
            )
            assert decide(action).verdict == "yes"
            w = build_witness(action)
            assert w.certificate.valid
            assert is_integer_like(w.full_char_poly)
