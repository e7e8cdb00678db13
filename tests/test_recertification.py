"""Differential tests for the exact re-certification checks of a witness.

The graded bracket check is compared with the all-pairs bracket check (kept
here as an oracle). The commutation check runs on V only; it is compared with
the signed-permutation check on V+W that it replaced, and that one with
RationalMatrix products with the dense extension of a permutation matrix. The
integer-row kernels are compared with their RationalMatrix wrappers and with
the all-pairs extension loop, and the witness polynomial taken from the block
structure with the dense characteristic polynomial of the V+W matrix.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import anosovgraph.witness
from anosovgraph.errors import PreconditionViolation, WitnessAssemblyError
from anosovgraph.exactmat import RationalMatrix, coerce_matrix
from anosovgraph.families import family_I_modified, family_II, family_II_z4
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
)
from anosovgraph.holonomy import build_action
from anosovgraph.hyperbolicity import char_poly
from anosovgraph.polynomials import companion_rows
from anosovgraph.liealg import (
    brackets_preserved,
    extend_rows,
    extend_to_algebra,
    is_algebra_automorphism,
)
from anosovgraph.repdecomp import decide
from anosovgraph.witness import (
    assemble_witness,
    build_witness,
    catalog_polynomials,
    commutes_with_perm,
    plan_blocks,
)
from tests_support_guard import make_instances
from tests_support_oracles import (
    bracket,
    commutes_with_signed_perm,
    extend_permutation,
    extension_product,
    path_graph,
    permutation_matrix,
    wedge_index,
)

MAX_ORACLE_DIM = 48
MAX_PRODUCT_DIM = 30  # dense Fraction products are the slow oracle
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def all_pairs_bracket_check(graph, m):
    """The dense check: bracket preservation on every pair of basis images."""
    m = coerce_matrix(m)
    dim = graph.num_vertices + graph.num_edges
    if m.det() == 0:
        return False
    cols = [tuple(m[i, j] for i in range(dim)) for j in range(dim)]
    n = graph.num_vertices
    zero = tuple(Fraction(0) for _ in range(dim))
    for x in range(dim):
        for y in range(x + 1, dim):
            lhs = bracket(graph, cols[x], cols[y])
            rhs = zero
            if x < n and y < n:
                entry = wedge_index(graph, graph.vertices[x], graph.vertices[y])
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
    assume(graph.num_vertices + graph.num_edges <= max_dim)
    return rng, graph, gens


def candidate_matrix(rng, graph, kind):
    """Matrices on V+W, from extended automorphisms to arbitrary ones."""
    n, dim = graph.num_vertices, graph.num_vertices + graph.num_edges
    if kind == "dense":
        return [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
    rational = kind == "rational" or (kind == "perturbed" and rng.random() < 0.5)
    rows = [list(row) for row in extend_to_algebra(graph, random_block_map(rng, graph, rational)).rows]
    if kind == "central-shear":
        # W is central, so adding W-parts to vertex images keeps an automorphism
        for _ in range(rng.randint(1, 3)):
            if graph.num_edges:
                rows[rng.randrange(n, dim)][rng.randrange(n)] += rng.randint(-2, 2)
    elif kind == "perturbed":
        rows[rng.randrange(dim)][rng.randrange(dim)] += rng.choice([-1, 1])
    elif kind == "wedge-v-rows":
        if graph.num_edges:
            rows[rng.randrange(n)][rng.randrange(n, dim)] += rng.choice([-1, 1])
    return rows


KINDS = ["extended", "rational", "central-shear", "perturbed", "wedge-v-rows", "dense"]


class TestGradedBracketCheck:
    @SETTINGS
    @given(instances(), st.sampled_from(KINDS))
    def test_matches_all_pairs_oracle(self, inst, kind):
        rng, graph, _ = inst
        m = candidate_matrix(rng, graph, kind)
        assert is_algebra_automorphism(graph, m) == all_pairs_bracket_check(graph, m)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_on_a_fixed_instance(self, kind):
        graph = complete_bipartite(2, 2)
        rng = random.Random(11)
        for _ in range(10):
            m = candidate_matrix(rng, graph, kind)
            expected = all_pairs_bracket_check(graph, m)
            assert is_algebra_automorphism(graph, m) == expected
            if kind in ("extended", "rational", "central-shear"):
                assert expected
            if kind == "wedge-v-rows":
                assert not expected


def dense_extension(graph, gen):
    return extend_to_algebra(graph, permutation_matrix(graph, gen))


def commuting_candidates(rng, graph, gen):
    """A polynomial in the generator's extension (commutes), a perturbation of it, a dense matrix."""
    sigma, signs = extend_permutation(graph, gen)
    dim = graph.num_vertices + graph.num_edges
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
        rng, graph, gens = inst
        assume(gens)
        for gen in gens:
            sigma, signs = extend_permutation(graph, gen)
            ext = dense_extension(graph, gen)
            for rows in commuting_candidates(rng, graph, gen):
                m = RationalMatrix(rows)
                assert commutes_with_signed_perm(m.int_rows(), sigma, signs) == (m * ext == ext * m)

    @SETTINGS
    @given(instances())
    def test_signed_permutation_is_the_dense_extension(self, inst):
        _, graph, gens = inst
        for gen in gens:
            sigma, signs = extend_permutation(graph, gen)
            dim = graph.num_vertices + graph.num_edges
            rows = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                rows[sigma[i]][i] = signs[i]
            assert RationalMatrix(rows) == dense_extension(graph, gen)

    def test_witness_commutes_and_a_perturbation_does_not(self):
        g = complete_bipartite(3, 3)
        swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        action = build_action(coherent_components(g), [swap])
        witness = build_witness(action)
        sigma, signs = extend_permutation(g, swap)
        ext = dense_extension(g, swap)
        full = RationalMatrix(witness.full_matrix)
        assert commutes_with_signed_perm(full.int_rows(), sigma, signs)
        assert full * ext == ext * full
        bad = [list(row) for row in full.rows]
        bad[0][1] += 1
        bad = RationalMatrix(bad)
        assert not commutes_with_signed_perm(bad.int_rows(), sigma, signs)
        assert bad * ext != ext * bad

    def test_negative_signs_matter(self):
        # on K2 the swap sends the wedge a^b to b^a = -(a^b)
        g = Graph(["a", "b"], [("a", "b")])
        swap = VertexPermutation.from_cycles("(a b)", g.vertices)
        sigma, signs = extend_permutation(g, swap)
        assert sigma == (1, 0, 2) and signs == (1, 1, -1)
        shear = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]  # v_a, v_b both gain the wedge
        ext = dense_extension(g, swap)
        m = RationalMatrix(shear)
        assert m * ext != ext * m
        assert not commutes_with_signed_perm(shear, sigma, signs)
        assert commutes_with_perm(shear, sigma)  # the unsigned reindexing would pass

    def test_non_automorphism_raises(self):
        g = path_graph(3)  # v2 is the middle vertex
        bad = VertexPermutation.from_cycles("(v2 v3)", g.vertices)
        with pytest.raises(PreconditionViolation):
            extend_permutation(g, bad)


def v_maps(rng, graph, perm):
    """Maps on V labelled with whether they must commute with perm.

    A polynomial in perm's permutation matrix, the average of a block-diagonal
    map over the powers of perm, that average perturbed by +-1 inside a
    component in each row in turn, and a block-diagonal unimodular map.
    `extend_rows` may refuse the polynomial; every other map is block-diagonal
    over the coherent components, which it always accepts.
    """
    n = len(perm)
    identity = tuple(range(n))
    powers = [identity]
    while (following := tuple(perm[i] for i in powers[-1])) != identity:
        powers.append(following)
    poly = [[0] * n for _ in range(n)]
    for power in powers[: rng.randint(1, len(powers))]:
        c = rng.randint(-2, 2)
        for i in range(n):
            poly[power[i]][i] += c
    block = random_block_map(rng, graph)
    average = [[0] * n for _ in range(n)]
    for power in powers:
        for i in range(n):
            for j in range(n):
                average[power[i]][power[j]] += block[i][j]
    maps = [(poly, True), (average, True)]
    part = coherent_components(graph)
    for r in range(n):
        # prefer a column that perm moves: a change at a fixed row and column commutes
        members = part.member_positions[part.component_of[r]]
        c = rng.choice([j for j in members if perm[j] != j] or members)
        perturbed = [list(row) for row in average]
        perturbed[r][c] += rng.choice([-1, 1])
        maps.append((perturbed, None))
    unimodular = [[0] * n for _ in range(n)]
    for comp in part.components:
        idx = [graph.index(v) for v in comp]
        for a, row in zip(idx, random_unimodular_block(rng, len(idx))):
            for b, x in zip(idx, row):
                unimodular[a][b] = x
    maps.append((unimodular, None))
    return maps


class TestCommutationOnV:
    """Commutation on V decides commutation of the extensions on V + W."""

    def check(self, rng, graph, gen):
        perm = tuple(graph.index(gen(v)) for v in graph.vertices)  # as the assembly forms it
        sigma, signs = extend_permutation(graph, gen)
        for rows, commutes in v_maps(rng, graph, perm):
            try:
                full = extend_rows(graph, rows)
            except PreconditionViolation:
                assert commutes  # only the polynomial may leave the edge wedges
                continue
            on_v = commutes_with_perm(rows, perm)
            assert on_v == commutes_with_signed_perm(full, sigma, signs)
            if commutes:
                assert on_v

    @SETTINGS
    @given(instances())
    def test_v_check_matches_signed_check_on_v_plus_w(self, inst):
        # every power of a generator: a power fixes the vertices whose cycle
        # length divides it, which gives rows that only a fixed point checks
        rng, graph, gens = inst
        assume(gens)
        for gen in gens:
            power = gen
            for _ in range(gen.order()):
                self.check(rng, graph, power)
                power = power * gen

    @pytest.mark.parametrize(
        "graph, cycles",
        [
            (Graph(["v1", "v2", "v3"], []), "(v1 v2)"),
            (complete_bipartite(2, 2), "(a1 b1)(a2 b2)"),
            (path_graph(5), "(v1 v5)(v2 v4)"),
        ],
        ids=["discrete-last-fixed", "K2,2-swap", "P5-reflection"],
    )
    def test_fixed_instances(self, graph, cycles):
        gen = VertexPermutation.from_cycles(cycles, graph.vertices)
        for seed in range(20):
            self.check(random.Random(seed), graph, gen)

    def test_assembly_refuses_a_map_that_does_not_commute(self, monkeypatch):
        # the stabilizer (v1 v2)(v3 v4) fixes the one component; a certified block
        # that does not commute with it passes every stage before commutation
        g = Graph(["v1", "v2", "v3", "v4"], [])
        gen = VertexPermutation.from_cycles("(v1 v2)(v3 v4)", g.vertices)
        action = build_action(coherent_components(g), [gen])
        plan = plan_blocks(action)
        block = companion_rows(catalog_polynomials(4)[0])
        assert not commutes_with_perm(block, (1, 0, 3, 2))
        monkeypatch.setattr(anosovgraph.witness, "_int_matpow", lambda rows, k: block)
        with pytest.raises(WitnessAssemblyError) as info:
            assemble_witness(action, plan)
        assert info.value.stage == "commutation"


class TestExtendOnIntegers:
    @SETTINGS
    @given(instances(), st.booleans())
    def test_int_and_fraction_inputs_agree(self, inst, block_diagonal):
        rng, graph, _ = inst
        n = graph.num_vertices
        if block_diagonal:
            g_v = random_block_map(rng, graph)
        else:
            g_v = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        as_fractions = [[Fraction(x) for x in row] for row in g_v]
        outcomes = []
        for m in (g_v, as_fractions):
            try:
                outcomes.append(extend_to_algebra(graph, m))
            except PreconditionViolation as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], RationalMatrix):
            assert all(isinstance(x, Fraction) for row in outcomes[0].rows for x in row)


def all_pairs_extension(graph, rows):
    """The loop `extend_to_algebra` used to run: every vertex pair for every wedge column."""
    n, m = graph.num_vertices, graph.num_edges
    full = [list(row) + [0] * m for row in rows] + [[0] * (n + m) for _ in range(m)]
    for col, (a, b) in enumerate(graph.edges):
        ia, ib = graph.index(a), graph.index(b)
        for u in range(n):
            for v in range(u + 1, n):
                coeff = rows[u][ia] * rows[v][ib] - rows[v][ia] * rows[u][ib]
                if coeff == 0:
                    continue
                lu, lv = graph.vertices[u], graph.vertices[v]
                signed = wedge_index(graph, lu, lv)
                if signed is None:
                    raise PreconditionViolation(
                        f"image of wedge {a}^{b} meets the non-edge wedge {lu}^{lv}; "
                        "the map does not respect the coherent components"
                    )
                sign, idx = signed
                full[n + idx][n + col] = sign * coeff
    return full


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def outcome(f, *args):
    try:
        return coerce_matrix(f(*args))
    except PreconditionViolation as exc:
        return str(exc)


class TestIntegerRowKernels:
    @SETTINGS
    @given(instances(), st.sampled_from(["block", "rational", "arbitrary"]))
    def test_extend_rows_matches_wrapper_and_all_pairs_loop(self, inst, kind):
        rng, graph, _ = inst
        n = graph.num_vertices
        if kind == "arbitrary":
            g_v = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        else:
            g_v = random_block_map(rng, graph, rational=kind == "rational")
        invertible = RationalMatrix(g_v).det() != 0
        for rows in (g_v, as_fractions(g_v)):
            got = outcome(extend_rows, graph, rows)
            assert got == outcome(all_pairs_extension, graph, rows)
            if invertible:
                assert got == outcome(extend_to_algebra, graph, rows)
        if kind == "block":
            assert all(type(x) is int for row in extend_rows(graph, g_v) for x in row)

    @SETTINGS
    @given(instances(), st.sampled_from(KINDS))
    def test_brackets_preserved_matches_wrapper(self, inst, kind):
        rng, graph, _ = inst
        m = candidate_matrix(rng, graph, kind)
        invertible = RationalMatrix(m).det() != 0
        expected = all_pairs_bracket_check(graph, m)
        for rows in (m, as_fractions(m)):
            kernel = brackets_preserved(graph, rows)
            assert is_algebra_automorphism(graph, rows) == (invertible and kernel) == expected
            assert brackets_preserved(graph, tuple(tuple(row) for row in rows)) == kernel


def random_unimodular_block(rng, size):
    """An integer matrix of determinant +-1, from random elementary row operations."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(rng.randint(0, 3 * size) if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return rows


class TestStructuralCharPoly:
    @SETTINGS
    @given(instances())
    def test_matches_dense_char_poly_of_unimodular_block_maps(self, inst):
        rng, graph, _ = inst
        part = coherent_components(graph)
        n = graph.num_vertices
        g_v = [[0] * n for _ in range(n)]
        polys = []
        for comp in part.components:
            block = random_unimodular_block(rng, len(comp))
            idx = [graph.index(v) for v in comp]
            rng.shuffle(idx)  # any placement order of the block within its component
            for a, ia in enumerate(idx):
                for b, ib in enumerate(idx):
                    g_v[ia][ib] = block[a][b]
            polys.append(char_poly(block))
        assert extension_product(part, polys) == char_poly(extend_to_algebra(graph, g_v).int_rows())

    @settings(SETTINGS, max_examples=30)
    @given(instances())
    def test_witness_polys_match_dense_char_poly(self, inst):
        _, graph, gens = inst
        action = build_action(coherent_components(graph), gens)
        assume(decide(action).verdict == "yes")
        witness = build_witness(action)
        assert witness.full_char_poly == char_poly(witness.full_matrix)
        assert witness.v_char_poly == char_poly(witness.v_matrix)
        assert is_algebra_automorphism(graph, witness.full_matrix)

    @pytest.mark.parametrize(
        "inst", [family_I_modified(3), family_II_z4(3)], ids=["I-modified-3", "II-Z4-3"]
    )
    def test_witness_with_complete_components_matches_dense_char_poly(self, inst):
        # the random yes-instances above have no complete component; these have two and four
        part = coherent_components(inst.graph)
        assert any(part.loops) and part.quotient_edges
        witness = build_witness(build_action(part, inst.generators))
        assert witness.full_char_poly == char_poly(witness.full_matrix)
        assert witness.v_char_poly == char_poly(witness.v_matrix)

    def test_witness_path_builds_no_full_size_rational_matrix(self, monkeypatch):
        # no RationalMatrix of any size: det(V) is read off the block polynomials
        inst = family_II(5, 3)
        action = build_action(coherent_components(inst.graph), inst.generators)

        def no_rational_matrix(self, rows):
            raise AssertionError("RationalMatrix built on the witness path")

        def no_conversion(self):
            raise AssertionError("Fraction to int conversion on the witness path")

        monkeypatch.setattr(RationalMatrix, "__init__", no_rational_matrix)
        monkeypatch.setattr(RationalMatrix, "int_rows", no_conversion)
        witness = build_witness(action)
        assert witness.certificate.valid

    def test_v_part_mixing_components_is_refused(self, monkeypatch):
        # composing the witness with the part swap of K3,3 keeps a bracket-preserving
        # map that commutes with the swap, but its V-part is off the diagonal blocks,
        # so the block polynomials no longer give its characteristic polynomial
        g = complete_bipartite(3, 3)
        swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
        action = build_action(coherent_components(g), [swap])
        plan = plan_blocks(action)
        witness = assemble_witness(action, plan)
        p = permutation_matrix(g, swap).int_rows()
        n = g.num_vertices

        def mixed(graph, v_rows):
            swapped = [[sum(p[i][k] * v_rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            return extend_rows(graph, swapped)

        full = mixed(g, witness.v_matrix)
        assert brackets_preserved(g, full)
        assert char_poly(full) != witness.full_char_poly
        monkeypatch.setattr(anosovgraph.witness, "extend_rows", mixed)
        with pytest.raises(AssertionError, match="block-diagonal"):
            assemble_witness(action, plan)
