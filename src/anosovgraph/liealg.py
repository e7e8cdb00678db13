"""2-step nilpotent Lie algebras built from graphs, over the rationals.

The algebra of a graph is fixed by the graph alone: it lives on V + W, where
V has the vertices as basis and W has one wedge per edge, and the bracket of
two adjacent vertices is their wedge; everything else vanishes. The wedge
basis is ordered like the graph's edge list, each wedge oriented with the
earlier vertex first, so the bracket of vertices u and v is +-(the wedge of
the edge uv), or zero for a non-edge. The kernels below take the `Graph`
itself and never form brackets as coefficient vectors; they read them off
the rows of a map. Degree-0 maps on V extend to the whole algebra by acting
on wedges.

The kernels `extend_rows` and `brackets_preserved` work on plain rows (ints,
or Fractions for rational maps); `extend_to_algebra` and
`is_algebra_automorphism` wrap them with coercion, shape and determinant
checks for arbitrary exact input. A map that is block-diagonal over the
coherent components has its V + W characteristic polynomial given by its
block polynomials alone (`extension_factors`). Vertex permutations are not
extended: the witness checks its commutation with them on V (see `witness`).
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .errors import PreconditionViolation
from .exactmat import RationalMatrix, coerce_matrix
from .graphs import CoherentPartition, Graph
from .hyperbolicity import exterior_square_poly, tensor_poly
from .polynomials import IntPolynomial


def _wedge_index(graph: Graph) -> dict[tuple[int, int], int]:
    """(position of a, position of b) -> wedge index, for each edge (a, b); a comes first."""
    return {(graph.index(a), graph.index(b)): i for i, (a, b) in enumerate(graph.edges)}


def extend_rows(graph: Graph, rows) -> tuple[tuple, ...]:
    """Rows on V + W of the degree-0 extension of the map on V with the given rows.

    Column n + k is the image of the k-th wedge a^b, that is g(a) ^ g(b); its
    coefficient on u^v (u before v) is g_ua g_vb - g_va g_ub. Only the rows
    where column a or column b of g is nonzero can give a nonzero coefficient,
    so only their pairs are formed. A nonzero coefficient on a non-edge means
    the map admits no degree-0 extension, and raises PreconditionViolation.
    Exact on int or Fraction entries; invertibility is not checked here.
    """
    n, m = graph.num_vertices, graph.num_edges
    wedge = _wedge_index(graph)
    support = [{u for u in range(n) if rows[u][x]} for x in range(n)]
    full = [list(row) + [0] * m for row in rows] + [[0] * (n + m) for _ in range(m)]
    for (ia, ib), col in wedge.items():
        touched = sorted(support[ia] | support[ib])
        for k, u in enumerate(touched):
            gu_a, gu_b = rows[u][ia], rows[u][ib]
            for v in touched[k + 1 :]:
                coeff = gu_a * rows[v][ib] - rows[v][ia] * gu_b
                if coeff == 0:
                    continue
                idx = wedge.get((u, v))
                if idx is None:
                    a, b = graph.edges[col]
                    lu, lv = graph.vertices[u], graph.vertices[v]
                    raise PreconditionViolation(
                        f"image of wedge {a}^{b} meets the non-edge wedge {lu}^{lv}; "
                        "the map does not respect the coherent components"
                    )
                full[n + idx][n + col] = coeff
    return tuple(tuple(row) for row in full)


def _exact_rows(m: RationalMatrix):
    """Rows of m with int entries when m is integral, else its Fraction rows."""
    return m.int_rows() if m.is_integer else m.rows


def extend_to_algebra(graph: Graph, g_v) -> RationalMatrix:
    """Extend an invertible map on V to V + W by acting on wedges.

    The image of each edge wedge must again be a combination of edge wedges;
    otherwise the map admits no degree-0 extension and this raises.
    """
    g_v = coerce_matrix(g_v)
    n = graph.num_vertices
    if g_v.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix on V, got {g_v.shape}")
    if g_v.det() == 0:
        raise PreconditionViolation("map on V is not invertible")
    return RationalMatrix(extend_rows(graph, _exact_rows(g_v)))


def brackets_preserved(graph: Graph, rows) -> bool:
    """Whether the square matrix with these rows on V + W preserves the bracket on all basis pairs.

    Brackets land in W and depend only on the V-parts of their arguments, so
    the condition on all pairs of basis images comes down to two parts:
    every wedge column has zero V-rows (then each pair involving a wedge
    column brackets to zero on both sides), and each pair of vertex columns
    x < y brackets to the wedge column of the edge x^y, or to zero for a
    non-edge. The bracket of columns x and y is formed from the nonzero
    V-entries of each; since every wedge column belongs to exactly one vertex
    pair, the brackets of the edge pairs make up the whole expected W-block.
    Exact on int or Fraction entries; invertibility is not checked here.
    """
    n, m = graph.num_vertices, graph.num_edges
    if any(any(row[n:]) for row in rows[:n]):
        return False
    wedge = _wedge_index(graph)
    support = [[(a, rows[a][x]) for a in range(n) if rows[a][x]] for x in range(n)]
    expected = [[0] * m for _ in range(m)]  # expected[e][k]: row n + e, column n + k
    for x in range(n):
        for y in range(x + 1, n):
            bracket = {}  # wedge index -> coefficient of the bracket of columns x and y
            for a, ca in support[x]:
                for b, cb in support[y]:
                    if a < b:
                        e, coeff = wedge.get((a, b)), ca * cb
                    elif b < a:
                        e, coeff = wedge.get((b, a)), -ca * cb
                    else:
                        continue
                    if e is not None:
                        bracket[e] = bracket.get(e, 0) + coeff
            col = wedge.get((x, y))
            if col is None:
                if any(bracket.values()):
                    return False
            else:
                for e, coeff in bracket.items():
                    expected[e][col] = coeff
    return all(list(rows[n + e][n:]) == expected[e] for e in range(m))


def is_algebra_automorphism(graph: Graph, m) -> bool:
    """Exact check: m is invertible and preserves the bracket on all basis pairs.

    Integral inputs are checked on ints, others on their Fractions; the
    bracket condition is `brackets_preserved`.
    """
    m = coerce_matrix(m)
    dim = graph.num_vertices + graph.num_edges
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
    if m.det() == 0:
        return False
    return brackets_preserved(graph, _exact_rows(m))


# ---------------------------------------------------------------------------
# Characteristic polynomial on V + W


def extension_factors(part: CoherentPartition, component_polys) -> tuple[tuple[IntPolynomial, int], ...]:
    """Distinct factors, with multiplicities, of the V + W characteristic polynomial of a block map.

    The map is block-diagonal over the components, and component_polys[i]
    is the characteristic polynomial of its block on component i. W = [V, V]
    is characteristic, so the extension is block triangular on V + W and its
    polynomial is the product of the V part and the map induced on W.
    Adjacent components are joined by all their vertex pairs, and a complete
    component has all its internal pairs as edges, so W splits into
    A_i (x) A_j for each quotient edge (i, j) and the exterior square of A_i
    for each complete component. The polynomial is the product of the
    component polynomials, `tensor_poly(p_i, p_j)` over the quotient edges
    and `exterior_square_poly(p_i)` over the complete components; each
    factor is exact. Equal inputs give equal factors, so `tensor_poly` runs
    once per distinct pair {p_i, p_j} and `exterior_square_poly` once per
    distinct p_i. Equal factors are returned once, in first-seen order, and
    the polynomial is the product of f^e over the returned (f, e).
    """
    polys = list(component_polys)
    if len(polys) != part.num_components:
        raise ValueError("one polynomial per component is required")
    for comp, p in zip(part.components, polys):
        if p.degree != len(comp):
            raise ValueError(f"component of size {len(comp)} got a polynomial of degree {p.degree}")
    tensor = cache(tensor_poly)
    square = cache(exterior_square_poly)
    counts = Counter(polys)
    for i, j in part.quotient_edges:
        counts[tensor(*sorted((polys[i], polys[j]), key=lambda p: p.coefficients))] += 1
    for p, loop in zip(polys, part.loops):
        if loop:
            counts[square(p)] += 1
    return tuple(counts.items())
