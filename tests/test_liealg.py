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
)
from anosovgraph.fixtures import loop_end_chain, pentagon
import anosovgraph.liealg as liealg_module
from anosovgraph.families import family_II, family_II_z4
from anosovgraph.liealg import extend_to_algebra, extension_factors, is_algebra_automorphism
from anosovgraph.hyperbolicity import char_poly, exterior_square_poly, tensor_poly
from anosovgraph.polynomials import IntPolynomial
from tests_support_oracles import bracket, extension_product, path_graph


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
    """The algebra of a graph: V has the vertices as basis and W the edges."""

    def test_bipartite_dimension(self):
        g = complete_bipartite(3, 3)
        assert (g.num_vertices, g.num_edges) == (6, 9)

    def test_discrete_is_abelian(self):
        g = discrete_graph(4)
        assert (g.num_vertices, g.num_edges) == (4, 0)
        x, y = (1, 0, 0, 0), (0, 1, 0, 0)
        assert all(c == 0 for c in bracket(g, x, y))

    def test_pentagon_dimension(self):
        g = pentagon()
        assert g.num_vertices + g.num_edges == 10

    def test_dimension_formula_random(self):
        # the kernels act on V + W: the identity on V extends to the identity there
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng)
            dim = g.num_vertices + g.num_edges
            ext = extend_to_algebra(g, RationalMatrix.identity(g.num_vertices))
            assert ext == RationalMatrix.identity(dim)


class TestExtend:
    def test_identity_extends_to_identity(self):
        g = loop_end_chain()
        ext = extend_to_algebra(g, RationalMatrix.identity(g.num_vertices))
        assert ext == RationalMatrix.identity(g.num_vertices + g.num_edges)

    def test_k2_wedge_is_determinant(self):
        g = complete_graph(2)
        ext = extend_to_algebra(g, [[2, 1], [1, 1]])
        assert ext[2, 2] == 1  # det of the cat map
        ext2 = extend_to_algebra(g, [[3, 1], [1, 1]])
        assert ext2[2, 2] == 2

    def test_bipartite_block_is_kron(self):
        g = complete_bipartite(3, 3)
        rng = random.Random(3)
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        while round(float(np.linalg.det(np.array(b, dtype=float)))) == 0:
            b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g_v = [[0] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                g_v[i][j] = b[i][j]
                g_v[3 + i][3 + j] = b[i][j]
        ext = extend_to_algebra(g, g_v)
        w_block = np.array(
            [[float(ext[6 + r, 6 + c]) for c in range(9)] for r in range(9)]
        )
        assert np.array_equal(w_block, np.kron(np.array(b), np.array(b)))

    def test_functorial(self):
        g = loop_end_chain()
        rng = random.Random(8)
        part = coherent_components(g)

        def random_block_diag():
            g_v = [[Fraction(0)] * g.num_vertices for _ in range(g.num_vertices)]
            for comp in part.components:
                idx = [g.index(v) for v in comp]
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
            assert extend_to_algebra(g, g1 * g2) == extend_to_algebra(g, g1) * extend_to_algebra(g, g2)

    def test_rejects_singular(self):
        g = complete_graph(2)
        with pytest.raises(PreconditionViolation):
            extend_to_algebra(g, [[1, 1], [1, 1]])

    def test_rejects_component_mixing(self):
        g = path_graph(3)  # components {v1, v3} and {v2}
        # v2 -> v3, v3 -> v2 sends the wedge v1^v2 to the non-edge wedge v1^v3
        swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        with pytest.raises(PreconditionViolation):
            extend_to_algebra(g, swap)

    def test_spectrum_equals_v_spectrum_plus_products(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng)
            part = coherent_components(g)
            g_v = [[0] * g.num_vertices for _ in range(g.num_vertices)]
            for comp in part.components:
                idx = [g.index(v) for v in comp]
                while True:
                    block = [[rng.randint(-2, 2) for _ in idx] for _ in idx]
                    if RationalMatrix(block).det() != 0:
                        break
                for a, ia in enumerate(idx):
                    for b, ib in enumerate(idx):
                        g_v[ia][ib] = block[a][b]
            ext = extend_to_algebra(g, g_v)
            polys = []
            for comp in part.components:
                idx = [g.index(v) for v in comp]
                polys.append(char_poly([[g_v[i][j] for j in idx] for i in idx]))
            assert extension_product(part, polys) == char_poly(ext.int_rows())


class TestIsAlgebraAutomorphism:
    def test_extension_is_automorphism(self):
        g = complete_bipartite(2, 2)
        g_v = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]]
        assert is_algebra_automorphism(g, extend_to_algebra(g, g_v))

    def test_unipotent_shear(self):
        g = complete_graph(2)
        # identity plus: first vertex basis vector gains the wedge
        shear = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
        assert is_algebra_automorphism(g, shear)

    def test_wedge_scaling_fails(self):
        g = complete_graph(2)
        bad = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
        assert not is_algebra_automorphism(g, bad)

    def test_singular_fails(self):
        g = complete_graph(2)
        assert not is_algebra_automorphism(g, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_wrong_shape(self):
        g = complete_graph(2)
        with pytest.raises(ValueError):
            is_algebra_automorphism(g, [[1, 0], [0, 1]])


class TestEigenvalueProducts:
    def test_k2_reciprocal_pair(self):
        part = coherent_components(complete_graph(2))
        # x^2 - 3x + 1 has the reciprocal roots phi^2, phi^-2; their product is 1
        p = IntPolynomial((1, -3, 1))
        assert extension_product(part, [p]) == p * IntPolynomial((-1, 1))

    def test_chain_discrete_components_cross_only(self):
        part = coherent_components(loop_end_chain())
        spectra = [[2, 3], [5, 7, 11], [13, 17]]
        polys = [from_roots(spec) for spec in spectra]
        # quotient edges: a-pair x c-pair and b-triple x c-pair; loop on the triple
        cross_ac = [a * c for a in (2, 3) for c in (13, 17)]
        cross_bc = [b * c for b in (5, 7, 11) for c in (13, 17)]
        intra_b = [5 * 7, 5 * 11, 7 * 11]
        expected = from_roots([mu for spec in spectra for mu in spec] + cross_ac + cross_bc + intra_b)
        assert extension_product(part, polys) == expected

    def test_triangle_pairwise(self):
        part = coherent_components(complete_graph(3))
        assert extension_product(part, [from_roots([2, 3, 5])]) == from_roots([2, 3, 5, 6, 10, 15])

    @pytest.mark.parametrize("inst", [family_II(5, 3), family_II_z4(3)], ids=["II-5-3", "II-Z4-3"])
    def test_each_distinct_input_is_expanded_once(self, monkeypatch, inst):
        part = coherent_components(inst.graph)
        a, b = from_roots([2, 3, 5]), from_roots([-1, 7, 11])
        polys = [a, a, b] + [b] * (part.num_components - 3)
        calls = []
        for name, real in (("tensor_poly", tensor_poly), ("exterior_square_poly", exterior_square_poly)):
            monkeypatch.setattr(
                liealg_module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
            )
        factors = extension_factors(part, polys)
        pairs = {frozenset((polys[i], polys[j])) for i, j in part.quotient_edges}
        squares = {p for p, loop in zip(polys, part.loops) if loop}
        assert calls.count("tensor_poly") == len(pairs) < len(part.quotient_edges)
        assert calls.count("exterior_square_poly") == len(squares)
        # each distinct factor once, with the multiplicities of the per-edge product
        assert len({f for f, _ in factors}) == len(factors)
        expected = IntPolynomial([1])
        for p in polys:
            expected = expected * p
        for i, j in part.quotient_edges:
            expected = expected * tensor_poly(polys[i], polys[j])
        for p, loop in zip(polys, part.loops):
            if loop:
                expected = expected * exterior_square_poly(p)
        assert extension_product(part, polys) == expected
        assert sum(e for _, e in factors) == part.num_components + len(part.quotient_edges) + sum(part.loops)

    def test_size_mismatch(self):
        part = coherent_components(complete_graph(3))
        with pytest.raises(ValueError):
            extension_product(part, [from_roots([1, 2])])
        with pytest.raises(ValueError):
            extension_product(part, [from_roots([1, 2, 3])] * 2)
