"""Dense oracles for the tests: permutation matrices and the bracket of coefficient vectors."""

from anosovgraph.exactmat import RationalMatrix


def permutation_matrix(graph, p):
    """The matrix moving basis vector v to basis vector p(v), in vertex order."""
    n = graph.num_vertices
    rows = [[0] * n for _ in range(n)]
    for v in graph.vertices:
        rows[graph.index(p(v))][graph.index(v)] = 1
    return RationalMatrix(rows)


def bracket(alg, x, y):
    """Bracket of two coefficient vectors over the V+W basis: x_u y_v - x_v y_u on each wedge u^v."""
    n = alg.dim_v
    out = [0] * alg.dimension
    for k, (u, v) in enumerate(alg.w_basis):
        iu, iv = alg.graph.index(u), alg.graph.index(v)
        out[n + k] = x[iu] * y[iv] - x[iv] * y[iu]
    return tuple(out)
