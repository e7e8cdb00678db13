import inspect
import itertools
import json
import random
from dataclasses import replace
from functools import lru_cache
from math import isfinite, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anosovgraph.hyperbolicity as hyperbolicity_module
import anosovgraph.liealg as liealg_module
import anosovgraph.witness as witness_module
from anosovgraph.analysis import analyze
from anosovgraph.errors import (
    CancelToken,
    OperationCancelled,
    SeedSearchExhausted,
    WitnessAssemblyError,
    WitnessRefused,
)
from anosovgraph.exactmat import RationalMatrix
from anosovgraph.families import family_I, family_I_modified, family_II
from anosovgraph.fixtures import four_pair_chain, four_pair_chain_swap
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    discrete_graph,
    index_cycles,
)
from anosovgraph.holonomy import build_action
from anosovgraph.hyperbolicity import (
    certify_polynomial,
    char_poly,
    is_integer_like,
)
from anosovgraph.liealg import extend_to_algebra, is_algebra_automorphism
from anosovgraph.polynomials import (
    IntPolynomial,
    companion_rows,
    cyclotomic,
    palindromic_to_interval_poly,
    squarefree_part,
)
from anosovgraph.repdecomp import decide
from anosovgraph.witness import (
    CAT_MAP_ROWS,
    OrbitSeedPlan,
    assemble_witness,
    build_witness,
    catalog_polynomials,
    choose_exponents,
    commutes_with_perm,
    find_seed,
    log_modulus_bounds,
    plan_blocks,
    seed_catalog,
    structured_seed,
)

from tests_support_guard import dummy_plan, make_instances
from tests_support_oracles import factor_product, permutation_matrix

CUBIC = IntPolynomial((1, -2, -1, 1))


def action_for(graph, *cycle_strings):
    gens = [VertexPermutation.from_cycles(s, graph.vertices) for s in cycle_strings]
    return build_action(coherent_components(graph), gens)


def with_first_orbit(action, **changes):
    """The action with fields of its first orbit replaced; a plan made for it carries them."""
    orbit = replace(action.orbits[0], **changes)
    return replace(action, orbits=(orbit,) + action.orbits[1:])


def catalog_then_lift(dim, stabilizer_perm):
    """The lifted catalog seeds as they were built with a separate catalog
    branch: catalog seeds filtered by commutation, then lifts for a uniform
    cycle length d > 1."""
    if dim == 2 and commutes_with_perm(CAT_MAP_ROWS, stabilizer_perm):
        yield CAT_MAP_ROWS
    for p in catalog_polynomials(dim):
        rows = companion_rows(p)
        if commutes_with_perm(rows, stabilizer_perm):
            yield rows
    cycles = index_cycles(stabilizer_perm)
    lengths = {len(c) for c in cycles}
    if len(lengths) == 1 and lengths != {1}:
        d = lengths.pop()
        r = len(cycles)
        small = ([CAT_MAP_ROWS] if r == 2 else []) + [companion_rows(p) for p in catalog_polynomials(r)]
        for b in small:
            rows = [[0] * dim for _ in range(dim)]
            for a_idx in range(r):
                for b_idx in range(r):
                    for t in range(d):
                        rows[cycles[a_idx][t]][cycles[b_idx][t]] = b[a_idx][b_idx]
            yield tuple(tuple(row) for row in rows)


def catalog_with_every_filter(dim):
    """`catalog_polynomials` as it was built before its loop was trimmed:
    cyclotomic(n) for every n, a degree and a monic check on each candidate,
    and a sign fix on each flipped one."""
    out = [IntPolynomial((1, -2, -1, 1))] if dim == 3 else []

    def add(p):
        if p.degree == dim and p.is_monic and p.constant in (1, -1) and p not in out:
            out.append(p)

    for n in range(3, 64):
        phi_poly = cyclotomic(n)
        if phi_poly.degree != 2 * dim:
            continue
        q = palindromic_to_interval_poly(phi_poly)
        add(q)
        flipped = IntPolynomial(
            [c if (q.degree - i) % 2 == 0 else -c for i, c in enumerate(q.coefficients)]
        )
        add(flipped if flipped.is_monic else -flipped)
    if dim >= 2:
        add(IntPolynomial([-1, -1] + [0] * (dim - 2) + [1]))
        add(IntPolynomial([-1] + [0] * (dim - 2) + [1, 1]))
    return tuple(out)


def cycle_types(n, largest=None):
    """The partitions of n, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - first, first):
            yield (first,) + rest


def cyclic_generator(graph, lengths):
    """A permutation of the graph's vertices, in order, with cycles of the given lengths."""
    labels, cycles = list(graph.vertices), []
    for length in lengths:
        block, labels = labels[:length], labels[length:]
        if length > 1:
            cycles.append("(" + " ".join(block) + ")")
    return VertexPermutation.from_cycles("".join(cycles), graph.vertices)


def witness_every_cycle_type(points):
    """`analyze(..., want_witness=True)` on one cyclic generator of every cycle
    type on each number of points, on a discrete component (c = 1) and on a
    complete one (c = 2). Each yes must get a certified witness, and each
    other verdict none; returns the number of yes instances."""
    yes = 0
    for n in points:
        for lengths in cycle_types(n):
            for graph in (discrete_graph(n), complete_graph(n)):
                report = analyze(graph, [cyclic_generator(graph, lengths)], want_witness=True)
                if report.decision.verdict == "yes":
                    yes += 1
                    assert report.witness is not None, (lengths, graph.num_edges, report.witness_error)
                    assert report.witness.certificate.valid
                else:
                    assert report.witness is None and report.witness_error is None
    return yes


def discrete_beside_triangle(n, joined=False):
    """Discrete v1..vn beside the complete t1 t2 t3, or with every v joined to
    every t: two orbits, whose float bounds steer the exponents while they are finite."""
    vs, ts = [f"v{i}" for i in range(1, n + 1)], ["t1", "t2", "t3"]
    joins = list(itertools.product(vs, ts)) if joined else []
    return Graph(vs + ts, [("t1", "t2"), ("t1", "t3"), ("t2", "t3")] + joins)


def yes_orbits(max_points):
    """The orbit of one cyclic generator of every cycle type on at most max_points
    points, on a discrete component (c = 1) and on a complete one (c = 2), where
    the criterion says yes."""
    for n in range(2, max_points + 1):
        for lengths in cycle_types(n):
            for graph in (discrete_graph(n), complete_graph(n)):
                gen = cyclic_generator(graph, lengths)
                action = build_action(coherent_components(graph), [gen])
                if decide(action).verdict == "yes":
                    (orbit,) = action.orbits
                    yield orbit


class TestSeedSearch:
    def test_dim2_c1_cat_map_first(self):
        seed, cert = find_seed((0, 1), 1)
        assert seed == CAT_MAP_ROWS
        assert cert.valid and cert.char_poly == IntPolynomial((1, -3, 1))

    def test_dim3_c2_cubic_companion(self):
        seed, cert = find_seed((0, 1, 2), 2)
        assert seed == companion_rows(CUBIC)
        assert cert.valid
        assert cert.compound_char_poly == IntPolynomial((-1, -1, 2, 1))

    def test_dim2_c2_exhausts(self):
        # any 2x2 integer-like matrix has |det| = 1, so the pair product is
        # always on the unit circle; every candidate of the stream must fail
        with pytest.raises(SeedSearchExhausted) as exc_info:
            find_seed((0, 1), 2)
        assert exc_info.value.candidates_tried == len(list(seed_catalog((0, 1))))
        *lifted, _ = seed_catalog((0, 1))  # the structured seed is the cat map here
        polys = [char_poly(rows) for rows in lifted]
        assert len(set(polys)) == len(polys)  # the catalog tries x^2 - 3x + 1 once

    def test_dims_four_and_five(self):
        for dim in (4, 5):
            seed, cert = find_seed(tuple(range(dim)), 2)
            assert cert.valid
            assert is_integer_like(char_poly(seed))

    def test_seed_commutes_with_uniform_stabilizer(self):
        # order-2 action with two 2-cycles on four points
        perm = (1, 0, 3, 2)
        seed, cert = find_seed(perm, 1)
        assert cert.valid
        assert all(seed[perm[i]][perm[j]] == seed[i][j] for i in range(4) for j in range(4))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_stream_matches_catalog_then_lift(self, dim):
        # the catalog branch was the lift with d = 1: no catalog seed commutes
        # with a nontrivial permutation, so the streams agree on every perm;
        # the structured candidate comes last
        for perm in itertools.permutations(range(dim)):
            *lifted, last = seed_catalog(perm)
            assert lifted == list(catalog_then_lift(dim, perm)), perm
            assert last == structured_seed(perm)

    def test_catalog_matches_the_untrimmed_loop(self):
        for dim in range(1, 60):
            assert catalog_polynomials(dim) == catalog_with_every_filter(dim), dim

    def test_catalog_stream_deterministic(self):
        first = list(itertools.islice(seed_catalog((0, 1, 2)), 12))
        second = list(itertools.islice(seed_catalog((0, 1, 2)), 12))
        assert first == second

    @pytest.fixture
    def counted(self, monkeypatch):
        """(candidates, calls): the seed candidates streamed, and the matrices `char_poly` was called on."""
        candidates, calls = [], []
        real_catalog, real_char_poly = witness_module.seed_catalog, hyperbolicity_module.char_poly

        def counting_catalog(*args):
            for rows in real_catalog(*args):
                candidates.append(rows)
                yield rows

        def counting_char_poly(m):
            calls.append(m)
            return real_char_poly(m)

        monkeypatch.setattr(witness_module, "seed_catalog", counting_catalog)
        monkeypatch.setattr(witness_module, "char_poly", counting_char_poly)
        monkeypatch.setattr(hyperbolicity_module, "char_poly", counting_char_poly)
        return candidates, calls

    @pytest.mark.parametrize("dim, c", [(2, 1), (3, 2), (4, 2)])
    def test_one_char_poly_per_candidate(self, counted, dim, c):
        candidates, calls = counted
        _, cert = find_seed(tuple(range(dim)), c)
        assert cert.valid and len(calls) == len(candidates)

    @pytest.mark.parametrize("case", ["I-modified m=3", "discrete 8"])
    def test_one_char_poly_per_candidate_and_orbit_in_a_witness_run(self, counted, case):
        # find_seed takes one per candidate; the plan takes its seed's once,
        # and the assembly and both renderers read that one
        if case == "discrete 8":
            graph, gens = discrete_graph(8), []
        else:
            inst = family_I_modified(3)
            graph, gens = inst.graph, inst.generators
        candidates, calls = counted
        report = analyze(graph, gens, want_witness=True)
        report.to_json()
        report.to_text()
        assert report.witness is not None
        assert len(calls) == len(candidates) + len(report.action.orbits)

    def test_cancel(self):
        token = CancelToken()
        token.cancel()
        with token, pytest.raises(OperationCancelled):
            find_seed((0, 1, 2), 2)


class TestCycleTypeEnumeration:
    """One cyclic generator of every cycle type on a discrete component (c = 1)
    and on a complete one (c = 2)."""

    def test_every_yes_instance_on_at_most_8_points_gets_a_witness(self):
        verdicts = {"yes": 0, "other": 0}
        for n in range(2, 9):
            for lengths in cycle_types(n):
                if max(lengths) == 1:
                    continue
                for graph in (discrete_graph(n), complete_graph(n)):
                    report = analyze(graph, [cyclic_generator(graph, lengths)], want_witness=True)
                    if report.decision.verdict == "yes":
                        verdicts["yes"] += 1
                        assert report.witness is not None, (lengths, report.witness_error)
                        assert report.witness.certificate.valid
                    else:
                        verdicts["other"] += 1
                        assert report.witness is None and report.witness_error is None
        assert verdicts == {"yes": 21, "other": 95}

    def test_every_yes_cycle_type_on_9_to_16_points_gets_a_witness(self):
        """Above 12 points most seeds are `structured_seed`, whose float root
        moduli stall or spread; only the exact certificate may stop them.
        tests/sweep_witnesses.py runs 17 to 24 points."""
        assert witness_every_cycle_type(range(9, 17)) == 379

    def test_find_seed_certifies_every_yes_cycle_type_on_at_most_12_points(self):
        certified = 0
        for orbit in yes_orbits(12):
            _, cert = find_seed(orbit.stabilizer.restriction, orbit.c)
            assert cert.valid and cert.level == orbit.c
            certified += 1
        assert certified == 131

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10).flatmap(lambda n: st.permutations(range(n))))
    def test_structured_seed_commutes_and_is_unimodular(self, perm):
        perm = tuple(perm)
        rows = structured_seed(perm)
        assert commutes_with_perm(rows, perm)
        assert char_poly(rows).constant in (1, -1)


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

    def test_bounds_that_cannot_steer_take_exponent_1(self):
        """A single orbit takes exponent 1 whatever its bounds, and so does a
        later orbit whose bounds cannot steer: nothing raises, and the exact
        certificate decides."""
        nan, inf = float("nan"), float("inf")
        for bounds in [(0.0, 1.0), (1e-13, 1.0), (-1.0, 1.0), (nan, nan), (inf, inf), (nan, 1.0)]:
            assert choose_exponents([bounds]) == (1,)
            assert choose_exponents([bounds], margin=64.0) == (1,)
        for bounds, exponents in [
            ([(0.5, 1.0), (0.0, 1.0)], (1, 1)),
            ([(0.5, 1.0), (nan, nan)], (1, 1)),
            ([(0.5, 1.0), (1e-13, 1.0)], (1, 1)),
            ([(0.5, nan), (0.5, 1.0)], (1, 1)),
            ([(0.5, inf), (0.5, 1.0)], (1, 1)),
            ([(0.5, 1e308), (1e-11, 1.0)], (1, 1)),  # finite bounds whose quotient overflows
            ([(0.5, 1.0), (0.5, 1.0), (nan, 1.0)], (1, 4, 1)),
            ([(0.5, 1.0), (nan, nan), (0.5, 1.0)], (1, 1, 1)),  # a NaN sum steers nothing after it
        ]:
            assert choose_exponents(bounds) == exponents, bounds

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

    def test_repeated_roots_do_not_spread(self):
        cat = IntPolynomial((1, -3, 1))
        cube = log_modulus_bounds(cat * cat * cat)
        assert cube == pytest.approx(log_modulus_bounds(cat), rel=0, abs=1e-12)

    def test_unconverged_iteration_returns_finite_bounds(self, monkeypatch):
        """An iteration cut short still steers: its bounds are finite, and the
        exact certificate accepts the single-orbit witness they lead to."""
        monkeypatch.setattr(witness_module, "ABERTH_MAX_SWEEPS", 1)
        lo, hi = log_modulus_bounds(CUBIC)
        assert isfinite(lo) and isfinite(hi) and 0 <= lo <= hi
        report = analyze(discrete_graph(3), want_witness=True)
        assert report.witness is not None and report.witness.certificate.valid
        assert report.witness.plan[0].seed == companion_rows(CUBIC)

    def test_matches_numpy_on_every_yes_seed_and_its_powers(self):
        """Oracle: numpy's roots of the squarefree part, on the char polys of the
        seeds for every yes cycle type on at most 12 points, and on their squares
        and cubes. The bounds agree to 1e-9, and the exponents agree on every
        ordered pair of seeds at every retry margin, also where
        margin * max_i / min_j is an integer: there choose_exponents' relative
        slack of 1e-9 lies above the error of either solver."""
        seeds = sorted(
            {find_seed(o.stabilizer.restriction, o.c)[1].char_poly for o in yes_orbits(12)},
            key=lambda p: p.coefficients,
        )
        assert len(seeds) == 93
        pure, oracle = [], []
        for p in seeds:
            logs = [abs(log(abs(z))) for z in np.roots(squarefree_part(p).coefficients[::-1])]
            oracle.append((min(logs), max(logs)))
            pure.append(log_modulus_bounds(p))
            for power in (p, p * p, p * p * p):
                assert log_modulus_bounds(power) == pytest.approx(oracle[-1], rel=1e-9, abs=0), power
        for margin in (2 * 2**k for k in range(9)):
            for i, j in itertools.product(range(len(seeds)), repeat=2):
                assert choose_exponents([pure[i], pure[j]], margin) == choose_exponents(
                    [oracle[i], oracle[j]], margin
                ), (seeds[i], seeds[j], margin)


def two_orbit_exponents(graph):
    """The exponents of the certified witness on graph, with holonomy (v1 v2)(v3 v4)."""
    gen = VertexPermutation.from_cycles("(v1 v2)(v3 v4)", graph.vertices)
    report = analyze(graph, [gen], want_witness=True)
    assert report.witness is not None, report.witness_error
    assert report.witness.certificate.valid
    return tuple(p.exponent for p in report.witness.plan)


class TestMultiOrbitAboveTwelvePoints:
    """Discrete v1..vn with holonomy (v1 v2)(v3 v4) beside a triangle: the
    second orbit's exponent is read from the float bounds of both seeds
    while they are finite, and is 1 from 33 points, where they overflow."""

    EXPONENTS = {16: 93, 24: 144, 32: 194}

    @pytest.mark.parametrize("n", sorted(EXPONENTS))
    def test_certified(self, n):
        assert two_orbit_exponents(discrete_beside_triangle(n)) == (1, self.EXPONENTS[n])

    @pytest.mark.parametrize("n, joined", [(33, False), (33, True), (40, False), (40, True)],
                             ids=["33 beside", "33 joined", "40 beside", "40 joined"])
    def test_overflowed_bounds_certify(self, n, joined):
        assert two_orbit_exponents(discrete_beside_triangle(n, joined)) == (1, 1)


class TestBuildWitness:
    def test_bipartite_swap_end_to_end(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        w = build_witness(action)
        full = RationalMatrix(w.full_matrix)
        assert full.shape == (15, 15)
        # (a) certified algebra automorphism
        assert is_algebra_automorphism(g, w.full_matrix)
        # (b) exact commutation with the extended generator
        ext = extend_to_algebra(g, permutation_matrix(g, action.generators[0]))
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
        assert is_algebra_automorphism(g, w.full_matrix)

    @pytest.mark.parametrize("graph", [discrete_graph(3), complete_graph(3), complete_bipartite(2, 2)])
    def test_algebra_comes_from_the_action(self, graph):
        # the witness and its certificate have the dimension of this graph's algebra
        action = action_for(graph)
        dim = graph.num_vertices + graph.num_edges
        w = build_witness(action)
        assert len(w.full_matrix) == dim and w.full_char_poly.degree == dim
        w = assemble_witness(action, plan_blocks(action))
        assert len(w.full_matrix) == dim and w.certificate.char_poly.degree == dim
        assert list(inspect.signature(build_witness).parameters) == ["action"]
        assert list(inspect.signature(assemble_witness).parameters) == ["action", "plan"]

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
        # the retry must recompute only the exponents, not search seeds or
        # solve for their root bounds again
        inst = family_I(3, (2, 2, 3))
        action = build_action(coherent_components(inst.graph), inst.generators)
        margins, seed_searches, bound_solves = [], [], []
        real_choose, real_find = witness_module.choose_exponents, witness_module.find_seed
        real_bounds = witness_module.log_modulus_bounds

        def choose(bounds, margin=2.0):
            margins.append(margin)
            ks = real_choose(bounds, margin)
            return (1,) * len(ks) if margin == 2.0 else ks

        def find(*args, **kwargs):
            seed_searches.append(args)
            return real_find(*args, **kwargs)

        def bounds(p):
            bound_solves.append(p)
            return real_bounds(p)

        monkeypatch.setattr(witness_module, "choose_exponents", choose)
        monkeypatch.setattr(witness_module, "find_seed", find)
        monkeypatch.setattr(witness_module, "log_modulus_bounds", bounds)
        w = build_witness(action)
        assert margins == [2.0, 4.0]
        assert tuple(p.exponent for p in w.plan) == (1, 4, 88)
        assert w.certificate.valid
        assert is_algebra_automorphism(inst.graph, w.full_matrix)
        assert len(seed_searches) == 3  # one per orbit
        assert len(bound_solves) == 3  # one per orbit, not one per orbit and attempt

    def test_each_exponent_tuple_is_assembled_once(self, monkeypatch):
        # one orbit takes exponent 1 at every margin, so a certificate that
        # fails there would fail at every retry: the plan is assembled once
        action = action_for(complete_bipartite(3, 3), "(a1 b1)(a2 b2)(a3 b3)")
        invalid = certify_polynomial(IntPolynomial((1, -2, 1)), 1)
        assert is_integer_like(invalid.char_poly) and not invalid.valid
        assembled = []
        monkeypatch.setattr(witness_module, "certify_factors", lambda f: assembled.append(f) or invalid)
        with pytest.raises(WitnessAssemblyError) as built:
            build_witness(action)
        assert len(assembled) == 1
        with pytest.raises(WitnessAssemblyError) as direct:
            assemble_witness(action, plan_blocks(action))
        assert built.value.stage == direct.value.stage == "hyperbolicity"
        assert str(built.value) == str(direct.value)

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


@lru_cache(maxsize=None)
def guard_yes_actions(seed):
    """The actions of the yes-instances among 50 `tests_support_guard` instances from this seed."""
    actions = []
    for graph, gens in make_instances(random.Random(seed), 50):
        action = build_action(coherent_components(graph), gens)
        if decide(action).verdict == "yes":
            actions.append(action)
    return tuple(actions)


def factor_certificates(action, plan):
    """Assemble the plan, and return (factors, certificate) of each factor certificate taken."""
    seen = []
    real = witness_module.certify_factors

    def spy(factors):
        factors = list(factors)
        seen.append((factors, real(factors)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness_module, "certify_factors", spy)
        try:
            witness = assemble_witness(action, plan)
        except WitnessAssemblyError as exc:
            assert exc.stage == "hyperbolicity"
        else:
            assert witness.certificate is seen[-1][1]
            assert witness.full_char_poly == factor_product(seen[-1][0])
    return seen


class TestFactorCertificate:
    """The witness certifies its V+W polynomial through its distinct factors;
    the certificate must equal that of the whole polynomial field by field."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_whole_polynomial_certificate_on_guard_yes_instances(self, data):
        action = data.draw(st.sampled_from(guard_yes_actions(data.draw(st.integers(0, 3)))))
        plan = plan_blocks(action)
        exponents = data.draw(st.lists(st.integers(1, 4), min_size=len(plan), max_size=len(plan)))
        plan = tuple(replace(p, exponent=k) for p, k in zip(plan, exponents))
        ((factors, cert),) = factor_certificates(action, plan)
        assert len({f for f, _ in factors}) == len(factors)
        assert cert == certify_polynomial(factor_product(factors), 1)

    def test_every_guard_yes_instance_at_its_own_and_unit_exponents(self):
        # I m=3 fails at unit exponents, and I-modified m=3 has complete components
        families = [family_I(3, (2, 2, 3)), family_I_modified(3)]
        actions = [a for seed in range(4) for a in guard_yes_actions(seed)]
        actions += [build_action(coherent_components(i.graph), i.generators) for i in families]
        stages = set()
        for action in actions:
            plan = plan_blocks(action)
            for candidate in (plan, tuple(replace(p, exponent=1) for p in plan)):
                ((factors, cert),) = factor_certificates(action, candidate)
                assert cert == certify_polynomial(factor_product(factors), 1)
                stages.add((cert.stages[0].analysis.stage, cert.valid))
        assert {("reciprocal-gcd", True), ("sturm", True), ("endpoints", False)} <= stages

    def test_identical_blocks_take_one_tensor_product(self, monkeypatch):
        # II n=5 s=3: five quotient edges between five equal block polynomials
        inst = family_II(5, 3)
        action = build_action(coherent_components(inst.graph), inst.generators)
        calls = []
        real = liealg_module.tensor_poly
        monkeypatch.setattr(
            liealg_module, "tensor_poly", lambda p, q: calls.append((p, q)) or real(p, q)
        )
        w = build_witness(action)
        assert len(action.partition.quotient_edges) == 5
        assert len(calls) == 1
        assert w.full_char_poly == char_poly(w.full_matrix)


class TestVCharPoly:
    """`Witness.v_char_poly` raises each plan's block polynomial to its orbit's size;
    the product over every member, one schoolbook `*` each, is the oracle."""

    def test_matches_the_per_member_product(self):
        families = [family_II(5, 3), family_II(3, 3), family_I(3, (2, 2, 3)), family_I_modified(3)]
        actions = [build_action(coherent_components(i.graph), i.generators) for i in families]
        actions += guard_yes_actions(0)
        sizes = set()
        for action in actions:
            w = build_witness(action)
            per_member = IntPolynomial([1])
            for p in w.plan:
                for _ in p.orbit.members:
                    per_member = per_member * p.block_char_poly
            assert w.v_char_poly == per_member
            assert w.v_char_poly == char_poly(w.v_matrix)
            sizes.update(len(p.orbit.members) for p in w.plan)
        assert max(sizes) >= 5 and 1 in sizes


def dense_block_char_poly(seed, exponent):
    """The dense oracle: `char_poly` of seed^exponent formed by matrix products."""
    return char_poly(witness_module._int_matpow(seed, exponent))


class TestBlockCharPoly:
    """`OrbitSeedPlan.block_char_poly` reads the polynomial of seed^e off the seed's power sums."""

    def test_matches_dense_power_on_guard_yes_seeds(self):
        seeds = {
            p.seed for seed in range(4) for action in guard_yes_actions(seed) for p in plan_blocks(action)
        }
        assert len(seeds) > 1
        for seed in seeds:
            for e in (1, 2, 3, 25):
                plan = OrbitSeedPlan(orbit=None, seed=seed, exponent=e)
                assert plan.block_char_poly == dense_block_char_poly(seed, e), (seed, e)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
        ),
        st.integers(1, 6),
    )
    @example([[0, 0], [0, 0]], 3)
    @example([[1, 2, 3], [2, 4, 6], [0, 1, -1]], 4)  # rank 2
    def test_matches_dense_power_on_integer_matrices(self, rows, exponent):
        seed = tuple(map(tuple, rows))
        plan = OrbitSeedPlan(orbit=None, seed=seed, exponent=exponent)  # the orbit is not read
        assert plan.block_char_poly == dense_block_char_poly(seed, exponent)


class TestAssembleGuard:
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
            action = build_action(coherent_components(g), [])
            verdict = decide(action).verdict
            attempted += 1
            if verdict != "yes":
                with pytest.raises(WitnessRefused):
                    assemble_witness(action, dummy_plan(action))
                refused += 1
        assert attempted == 200
        assert refused > 50  # random sparse graphs mostly fail the criterion

    def test_guard_on_symmetric_instances(self):
        rng = random.Random(77)
        cases = 0
        for n in (4, 5, 6, 7, 8):
            g = cycle_graph(n)
            rot = VertexPermutation.from_cycles("(" + " ".join(g.vertices) + ")", g.vertices)
            action = build_action(coherent_components(g), [rot])
            if decide(action).verdict != "yes":
                with pytest.raises(WitnessRefused):
                    assemble_witness(action, dummy_plan(action))
                cases += 1
        assert cases >= 4

    def test_bad_plan_rejected_on_yes_instance(self):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        plan = plan_blocks(action)
        # break the seed: identity is not hyperbolic
        broken = (
            OrbitSeedPlan(
                orbit=plan[0].orbit,
                seed=tuple(tuple(int(i == j) for j in range(3)) for i in range(3)),
                exponent=1,
            ),
        )
        with pytest.raises(WitnessAssemblyError):
            assemble_witness(action, broken)

    def test_conjugator_outside_the_group_fails_commutation(self):
        # the first conjugator followed by a swap inside its member component
        # still carries the representative onto that member, but it is not a
        # group element, so the copied block breaks commutation
        inst = family_I(2, (2, 3))
        action = build_action(coherent_components(inst.graph), inst.generators)
        orbit = action.orbits[0]
        member, h = orbit.conjugators[0]
        u, v = action.partition.components[member][:2]
        swap = VertexPermutation.from_cycles(f"({u} {v})", inst.graph.vertices)
        assert swap * h not in action.elements
        action = with_first_orbit(action, conjugators=((member, swap * h),) + orbit.conjugators[1:])
        with pytest.raises(WitnessAssemblyError) as err:
            assemble_witness(action, plan_blocks(action))
        assert err.value.stage == "commutation"

    def test_plan_for_other_orbits_is_rejected(self):
        # a plan must carry the action's own orbits, all of them, in the action's order
        inst = family_I(2, (2, 3))
        action = build_action(coherent_components(inst.graph), inst.generators)
        plan = plan_blocks(action)
        assert len(plan) == 2
        altered = plan_blocks(with_first_orbit(action, conjugators=()))
        for candidate in (plan[1:], plan[::-1], altered):
            with pytest.raises(WitnessAssemblyError) as err:
                assemble_witness(action, candidate)
            assert err.value.stage == "plan"

    @pytest.mark.parametrize("exponent", [-1, 0])
    def test_exponent_below_one_is_rejected_at_plan(self, exponent):
        # _int_matpow never ends on a negative exponent, so this is refused before any matrix work
        inst = family_II(3, 3)
        action = build_action(coherent_components(inst.graph), inst.generators)
        plan = tuple(replace(p, exponent=exponent) for p in plan_blocks(action))
        with pytest.raises(WitnessAssemblyError) as err:
            assemble_witness(action, plan)
        assert err.value.stage == "plan"

    @pytest.mark.parametrize("defect", ["conjugator omitted", "singular seed"])
    def test_plan_leaving_v_singular_fails_at_extension(self, defect):
        g = complete_bipartite(3, 3)
        action = action_for(g, "(a1 b1)(a2 b2)(a3 b3)")
        if defect == "conjugator omitted":  # the other part's component gets no block
            action = with_first_orbit(action, conjugators=())
        (orbit_plan,) = plan_blocks(action)
        if defect == "singular seed":
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
            action = build_action(coherent_components(inst.graph), inst.generators)
            assert decide(action).verdict == "yes"
            w = build_witness(action)
            assert w.certificate.valid
            assert is_integer_like(w.full_char_poly)
