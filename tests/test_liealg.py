import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from anosovgraph.errors import PreconditionViolation
from anosovgraph.exactmat import RationalMatrix
from anosovgraph.graphs import (
    Graph,
    coherent_components,
    complete_bipartite,
    complete_graph,
    discrete_graph,
    path_graph,
)
from anosovgraph.fixtures import loop_end_chain, pentagon
from anosovgraph.liealg import (
    build_algebra,
    extend_to_algebra,
    extension_char_poly,
    is_algebra_automorphism,
)
from anosovgraph.hyperbolicity import char_poly
from anosovgraph.polynomials import IntPolynomial
from tests_support_oracles import bracket


def from_roots(roots):
    out = IntPolynomial([1])
    for r in roots:
        out = out * IntPolynomial([-r, 1])
    return out


def random_graph(rng, max_vertices=5):
    n = rng.randint(1, max_vertices)
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.5]
    return Graph(labels, edges)


class TestBuildAlgebra:
    def test_bipartite_dimension(self):
        alg = build_algebra(complete_bipartite(3, 3))
        assert alg.dimension == 15
        assert (alg.dim_v, alg.dim_w) == (6, 9)

    def test_discrete_is_abelian(self):
        alg = build_algebra(discrete_graph(4))
        assert alg.dimension == 4
        assert alg.dim_w == 0
        x, y = (1, 0, 0, 0), (0, 1, 0, 0)
        assert all(c == 0 for c in bracket(alg, x, y))

    def test_pentagon_dimension(self):
        assert build_algebra(pentagon()).dimension == 10

    def test_dimension_formula_random(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng)
            alg = build_algebra(g)
            assert alg.dimension == g.num_vertices + g.num_edges


class TestExtend:
    def test_identity_extends_to_identity(self):
        alg = build_algebra(loop_end_chain())
        ext = extend_to_algebra(alg, RationalMatrix.identity(alg.dim_v))
        assert ext == RationalMatrix.identity(alg.dimension)

    def test_k2_wedge_is_determinant(self):
        alg = build_algebra(complete_graph(2))
        ext = extend_to_algebra(alg, [[2, 1], [1, 1]])
        assert ext[2, 2] == 1  # det of the cat map
        ext2 = extend_to_algebra(alg, [[3, 1], [1, 1]])
        assert ext2[2, 2] == 2

    def test_bipartite_block_is_kron(self):
        g = complete_bipartite(3, 3)
        alg = build_algebra(g)
        rng = random.Random(3)
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        while round(float(np.linalg.det(np.array(b, dtype=float)))) == 0:
            b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g_v = [[0] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                g_v[i][j] = b[i][j]
                g_v[3 + i][3 + j] = b[i][j]
        ext = extend_to_algebra(alg, g_v)
        w_block = np.array(
            [[float(ext[6 + r, 6 + c]) for c in range(9)] for r in range(9)]
        )
        assert np.array_equal(w_block, np.kron(np.array(b), np.array(b)))

    def test_functorial(self):
        alg = build_algebra(loop_end_chain())
        rng = random.Random(8)
        part = coherent_components(alg.graph)

        def random_block_diag():
            g_v = [[Fraction(0)] * alg.dim_v for _ in range(alg.dim_v)]
            for comp in part.components:
                idx = [alg.graph.index(v) for v in comp]
                while True:
                    block = [[rng.randint(-2, 2) for _ in idx] for _ in idx]
                    if RationalMatrix(block).det() != 0:
                        break
                for a, ia in enumerate(idx):
                    for b, ib in enumerate(idx):
                        g_v[ia][ib] = Fraction(block[a][b])
            return RationalMatrix(g_v)

        for _ in range(5):
            g1, g2 = random_block_diag(), random_block_diag()
            assert extend_to_algebra(alg, g1 * g2) == extend_to_algebra(alg, g1) * extend_to_algebra(alg, g2)

    def test_rejects_singular(self):
        alg = build_algebra(complete_graph(2))
        with pytest.raises(PreconditionViolation):
            extend_to_algebra(alg, [[1, 1], [1, 1]])

    def test_rejects_component_mixing(self):
        g = path_graph(3)  # components {v1, v3} and {v2}
        alg = build_algebra(g)
        # v2 -> v3, v3 -> v2 sends the wedge v1^v2 to the non-edge wedge v1^v3
        swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        with pytest.raises(PreconditionViolation):
            extend_to_algebra(alg, swap)

    def test_spectrum_equals_v_spectrum_plus_products(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng)
            part = coherent_components(g)
            alg = build_algebra(g)
            g_v = [[0] * alg.dim_v for _ in range(alg.dim_v)]
            for comp in part.components:
                idx = [g.index(v) for v in comp]
                while True:
                    block = [[rng.randint(-2, 2) for _ in idx] for _ in idx]
                    if RationalMatrix(block).det() != 0:
                        break
                for a, ia in enumerate(idx):
                    for b, ib in enumerate(idx):
                        g_v[ia][ib] = block[a][b]
            ext = extend_to_algebra(alg, g_v)
            polys = []
            for comp in part.components:
                idx = [g.index(v) for v in comp]
                polys.append(char_poly([[g_v[i][j] for j in idx] for i in idx]))
            assert extension_char_poly(part, polys) == char_poly(ext.int_rows())


class TestIsAlgebraAutomorphism:
    def test_extension_is_automorphism(self):
        alg = build_algebra(complete_bipartite(2, 2))
        g_v = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]]
        assert is_algebra_automorphism(alg, extend_to_algebra(alg, g_v))

    def test_unipotent_shear(self):
        alg = build_algebra(complete_graph(2))
        # identity plus: first vertex basis vector gains the wedge
        shear = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
        assert is_algebra_automorphism(alg, shear)

    def test_wedge_scaling_fails(self):
        alg = build_algebra(complete_graph(2))
        bad = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
        assert not is_algebra_automorphism(alg, bad)

    def test_singular_fails(self):
        alg = build_algebra(complete_graph(2))
        assert not is_algebra_automorphism(alg, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_wrong_shape(self):
        alg = build_algebra(complete_graph(2))
        with pytest.raises(ValueError):
            is_algebra_automorphism(alg, [[1, 0], [0, 1]])


class TestEigenvalueProducts:
    def test_k2_reciprocal_pair(self):
        part = coherent_components(complete_graph(2))
        # x^2 - 3x + 1 has the reciprocal roots phi^2, phi^-2; their product is 1
        p = IntPolynomial((1, -3, 1))
        assert extension_char_poly(part, [p]) == p * IntPolynomial((-1, 1))

    def test_chain_discrete_components_cross_only(self):
        part = coherent_components(loop_end_chain())
        spectra = [[2, 3], [5, 7, 11], [13, 17]]
        polys = [from_roots(spec) for spec in spectra]
        # quotient edges: a-pair x c-pair and b-triple x c-pair; loop on the triple
        cross_ac = [a * c for a in (2, 3) for c in (13, 17)]
        cross_bc = [b * c for b in (5, 7, 11) for c in (13, 17)]
        intra_b = [5 * 7, 5 * 11, 7 * 11]
        expected = from_roots([mu for spec in spectra for mu in spec] + cross_ac + cross_bc + intra_b)
        assert extension_char_poly(part, polys) == expected

    def test_triangle_pairwise(self):
        part = coherent_components(complete_graph(3))
        assert extension_char_poly(part, [from_roots([2, 3, 5])]) == from_roots([2, 3, 5, 6, 10, 15])

    def test_size_mismatch(self):
        part = coherent_components(complete_graph(3))
        with pytest.raises(ValueError):
            extension_char_poly(part, [from_roots([1, 2])])
        with pytest.raises(ValueError):
            extension_char_poly(part, [from_roots([1, 2, 3])] * 2)
