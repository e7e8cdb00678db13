"""Differential tests for the exact re-certification checks of a witness.

The graded bracket check and the signed-permutation commutation check are
compared against the dense algorithms they replace: the all-pairs bracket
check (kept here as an oracle) and RationalMatrix products with the dense
extension of a permutation matrix.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import anosovgraph.witness
from anosovgraph.errors import PreconditionViolation, WitnessAssemblyError
from anosovgraph.exactmat import RationalMatrix, coerce_matrix
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    path_graph,
)
from anosovgraph.holonomy import build_action, permutation_matrix
from anosovgraph.liealg import (
    build_algebra,
    extend_permutation,
    extend_to_algebra,
    is_algebra_automorphism,
)
from anosovgraph.witness import (
    assemble_witness,
    build_witness,
    commutes_with_perm,
    plan_blocks,
)
from tests_support_guard import make_instances

MAX_ORACLE_DIM = 48
MAX_PRODUCT_DIM = 30  # dense Fraction products are the slow oracle
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def all_pairs_bracket_check(alg, m):
    """The dense check: bracket preservation on every pair of basis images."""
    m = coerce_matrix(m)
    dim = alg.dimension
    if m.det() == 0:
        return False
    cols = [tuple(m[i, j] for i in range(dim)) for j in range(dim)]
    table = alg.bracket_table()
    n = alg.dim_v
    zero = tuple(Fraction(0) for _ in range(dim))
    for x in range(dim):
        for y in range(x + 1, dim):
            lhs = alg.bracket(cols[x], cols[y])
            rhs = zero
            if x < n and y < n:
                entry = table.get((alg.v_basis[x], alg.v_basis[y]))
                if entry is not None:
                    sign, idx = entry
                    rhs = tuple(sign * c for c in cols[n + idx])
            if lhs != rhs:
                return False
    return True


def random_block_map(rng, graph, rational=False):
    """An invertible map on V that is block-diagonal along the coherent components."""
    n = graph.num_vertices
    g_v = [[0] * n for _ in range(n)]
    for comp in coherent_components(graph).components:
        idx = [graph.index(v) for v in comp]
        while True:
            block = [[rng.randint(-2, 2) for _ in idx] for _ in idx]
            if rational:
                block = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in block]
            if RationalMatrix(block).det() != 0:
                break
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                g_v[ia][ib] = block[a][b]
    return g_v


@st.composite
def instances(draw, max_dim=MAX_ORACLE_DIM):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    graph, gens = make_instances(rng, 1)[0]
    alg = build_algebra(graph)
    assume(alg.dimension <= max_dim)
    return rng, alg, gens


def candidate_matrix(rng, alg, kind):
    """Matrices on V+W, from extended automorphisms to arbitrary ones."""
    n, dim = alg.dim_v, alg.dimension
    if kind == "dense":
        return [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
    rational = kind == "rational" or (kind == "perturbed" and rng.random() < 0.5)
    rows = extend_to_algebra(alg, random_block_map(rng, alg.graph, rational)).to_lists()
    if kind == "central-shear":
        # W is central, so adding W-parts to vertex images keeps an automorphism
        for _ in range(rng.randint(1, 3)):
            if alg.dim_w:
                rows[rng.randrange(n, dim)][rng.randrange(n)] += rng.randint(-2, 2)
    elif kind == "perturbed":
        rows[rng.randrange(dim)][rng.randrange(dim)] += rng.choice([-1, 1])
    elif kind == "wedge-v-rows":
        if alg.dim_w:
            rows[rng.randrange(n)][rng.randrange(n, dim)] += rng.choice([-1, 1])
    return rows


KINDS = ["extended", "rational", "central-shear", "perturbed", "wedge-v-rows", "dense"]


class TestGradedBracketCheck:
    @SETTINGS
    @given(instances(), st.sampled_from(KINDS))
    def test_matches_all_pairs_oracle(self, inst, kind):
        rng, alg, _ = inst
        m = candidate_matrix(rng, alg, kind)
        assert is_algebra_automorphism(alg, m) == all_pairs_bracket_check(alg, m)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_on_a_fixed_instance(self, kind):
        alg = build_algebra(complete_bipartite(2, 2))
        rng = random.Random(11)
        for _ in range(10):
            m = candidate_matrix(rng, alg, kind)
            expected = all_pairs_bracket_check(alg, m)
            assert is_algebra_automorphism(alg, m) == expected
            if kind in ("extended", "rational", "central-shear"):
                assert expected
            if kind == "wedge-v-rows":
                assert not expected


def dense_extension(alg, gen):
    return extend_to_algebra(alg, permutation_matrix(alg.graph, gen))


def commuting_candidates(rng, alg, gen):
    """A polynomial in the generator's extension (commutes), a perturbation of it, a dense matrix."""
    sigma, signs = extend_permutation(alg, gen)
    dim = alg.dimension
    rows = [[0] * dim for _ in range(dim)]
    image = list(range(dim))  # basis i goes to sign[i] * e_image[i] under the current power
    sign = [1] * dim
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(-2, 2)
        for i in range(dim):
            rows[image[i]][i] += c * sign[i]
        image, sign = [sigma[k] for k in image], [s * signs[k] for s, k in zip(sign, image)]
    perturbed = [list(r) for r in rows]
    perturbed[rng.randrange(dim)][rng.randrange(dim)] += 1
    dense = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
    return [rows, perturbed, dense]


class TestSignedPermutationCommutation:
    @settings(SETTINGS, max_examples=30)
    @given(instances(MAX_PRODUCT_DIM))
    def test_matches_dense_product(self, inst):
        rng, alg, gens = inst
        assume(gens)
        for gen in gens:
            sigma, signs = extend_permutation(alg, gen)
            ext = dense_extension(alg, gen)
            for rows in commuting_candidates(rng, alg, gen):
                m = RationalMatrix(rows)
                assert commutes_with_perm(m.int_rows(), sigma, signs) == (m * ext == ext * m)

    @SETTINGS
    @given(instances())
    def test_signed_permutation_is_the_dense_extension(self, inst):
        _, alg, gens = inst
        for gen in gens:
            sigma, signs = extend_permutation(alg, gen)
            dim = alg.dimension
            rows = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                rows[sigma[i]][i] = signs[i]
            assert RationalMatrix(rows) == dense_extension(alg, gen)

    def test_witness_commutes_and_a_perturbation_does_not(self):
        g = complete_bipartite(3, 3)
        swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        action = build_action(g, coherent_components(g), [swap])
        alg = build_algebra(g)
        witness = build_witness(action, alg)
        sigma, signs = extend_permutation(alg, swap)
        ext = dense_extension(alg, swap)
        full = witness.full_matrix
        assert commutes_with_perm(full.int_rows(), sigma, signs)
        assert full * ext == ext * full
        bad = full.to_lists()
        bad[0][1] += 1
        bad = RationalMatrix(bad)
        assert not commutes_with_perm(bad.int_rows(), sigma, signs)
        assert bad * ext != ext * bad

    def test_negative_signs_matter(self):
        # on K2 the swap sends the wedge a^b to b^a = -(a^b)
        g = Graph(["a", "b"], [("a", "b")])
        alg = build_algebra(g)
        swap = VertexPermutation.from_cycles("(a b)", g.vertices)
        sigma, signs = extend_permutation(alg, swap)
        assert sigma == (1, 0, 2) and signs == (1, 1, -1)
        shear = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]  # v_a, v_b both gain the wedge
        ext = dense_extension(alg, swap)
        m = RationalMatrix(shear)
        assert m * ext != ext * m
        assert not commutes_with_perm(shear, sigma, signs)
        assert commutes_with_perm(shear, sigma)  # the unsigned reindexing would pass

    def test_non_edge_image_is_a_commutation_failure(self, monkeypatch):
        g = complete_bipartite(3, 3)
        swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        action = build_action(g, coherent_components(g), [swap])
        plan = plan_blocks(action)

        def non_edge(alg, p):
            raise PreconditionViolation("sends a wedge to a non-edge")

        monkeypatch.setattr(anosovgraph.witness, "extend_permutation", non_edge)
        with pytest.raises(WitnessAssemblyError) as info:
            assemble_witness(action, plan)
        assert info.value.stage == "commutation"

    def test_non_automorphism_raises(self):
        g = path_graph(3)  # v2 is the middle vertex
        alg = build_algebra(g)
        bad = VertexPermutation.from_cycles("(v2 v3)", g.vertices)
        with pytest.raises(PreconditionViolation):
            extend_permutation(alg, bad)


class TestExtendOnIntegers:
    @SETTINGS
    @given(instances(), st.booleans())
    def test_int_and_fraction_inputs_agree(self, inst, block_diagonal):
        rng, alg, _ = inst
        n = alg.dim_v
        if block_diagonal:
            g_v = random_block_map(rng, alg.graph)
        else:
            g_v = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        as_fractions = [[Fraction(x) for x in row] for row in g_v]
        outcomes = []
        for m in (g_v, as_fractions):
            try:
                outcomes.append(extend_to_algebra(alg, m))
            except PreconditionViolation as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], RationalMatrix):
            assert all(isinstance(x, Fraction) for row in outcomes[0].rows for x in row)
