"""2-step nilpotent Lie algebras built from graphs, over the rationals.

The algebra lives on V + W where V has the vertices as basis and W has one
wedge per edge; the bracket of two adjacent vertices is their wedge and
everything else vanishes. Degree-0 maps on V extend to the whole algebra by
acting on wedges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolation
from .exactmat import RationalMatrix, coerce_matrix
from .graphs import CoherentPartition, Graph
from .polynomials import IntPolynomial, from_power_sums, power_sums


class GraphLieAlgebra:
    """Bases and bracket table of the algebra attached to a graph.

    The wedge basis is ordered like the graph's edge list, each wedge oriented
    with the earlier vertex first; that convention fixes all bracket signs.
    """

    __slots__ = ("graph", "v_basis", "w_basis", "_w_index")

    def __init__(self, graph: Graph):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "v_basis", graph.vertices)
        object.__setattr__(self, "w_basis", graph.edges)
        object.__setattr__(self, "_w_index", {e: i for i, e in enumerate(graph.edges)})

    def __setattr__(self, name, value):
        raise AttributeError("GraphLieAlgebra is immutable")

    @property
    def dim_v(self) -> int:
        return len(self.v_basis)

    @property
    def dim_w(self) -> int:
        return len(self.w_basis)

    @property
    def dimension(self) -> int:
        return self.dim_v + self.dim_w

    def wedge_index(self, u: str, v: str) -> tuple[int, int] | None:
        """(sign, index) of the wedge u^v in the W basis, or None for non-edges."""
        iu, iv = self.graph.index(u), self.graph.index(v)
        if iu == iv:
            return None
        key = (u, v) if iu < iv else (v, u)
        idx = self._w_index.get(key)
        if idx is None:
            return None
        return (1 if iu < iv else -1, idx)

    def bracket_table(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Map from ordered vertex pairs to (sign, wedge index); zero pairs omitted."""
        table = {}
        for u, v in self.w_basis:
            table[(u, v)] = (1, self._w_index[(u, v)])
            table[(v, u)] = (-1, self._w_index[(u, v)])
        return table

    def bracket(self, x, y) -> tuple[Fraction, ...]:
        """Bracket of two coefficient vectors over the V+W basis."""
        n, m = self.dim_v, self.dim_w
        if len(x) != n + m or len(y) != n + m:
            raise ValueError("vectors must have full algebra dimension")
        out = [Fraction(0)] * (n + m)
        for w_idx, (u, v) in enumerate(self.w_basis):
            iu, iv = self.graph.index(u), self.graph.index(v)
            coeff = x[iu] * y[iv] - x[iv] * y[iu]
            if coeff:
                out[n + w_idx] = Fraction(coeff)
        return tuple(out)

    def basis_vector(self, index: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.dimension
        out[index] = Fraction(1)
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "v_basis": list(self.v_basis),
            "w_basis": [f"{u}^{v}" for u, v in self.w_basis],
            "nonzero_brackets": [[u, v, f"{u}^{v}"] for u, v in self.w_basis],
        }

    def __repr__(self) -> str:
        return f"GraphLieAlgebra(dim {self.dim_v}+{self.dim_w})"


def build_algebra(graph: Graph) -> GraphLieAlgebra:
    """The 2-step algebra of a graph; dimension = vertices + edges."""
    return GraphLieAlgebra(graph)


def _exact_rows(m: RationalMatrix):
    """Rows of m with int entries when m is integral, else its Fraction rows."""
    return m.int_rows() if m.is_integer else m.rows


def extend_to_algebra(alg: GraphLieAlgebra, g_v) -> RationalMatrix:
    """Extend an invertible map on V to V + W by acting on wedges.

    The image of each edge wedge must again be a combination of edge wedges;
    otherwise the map admits no degree-0 extension and this raises.
    """
    g_v = coerce_matrix(g_v)
    n, m = alg.dim_v, alg.dim_w
    if g_v.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix on V, got {g_v.shape}")
    if g_v.det() == 0:
        raise PreconditionViolation("map on V is not invertible")
    graph = alg.graph
    rows = _exact_rows(g_v)
    full = [list(row) + [0] * m for row in rows] + [[0] * (n + m) for _ in range(m)]
    for col, (a, b) in enumerate(alg.w_basis):
        ia, ib = graph.index(a), graph.index(b)
        for u in range(n):
            gu_a, gu_b = rows[u][ia], rows[u][ib]
            for v in range(u + 1, n):
                coeff = gu_a * rows[v][ib] - rows[v][ia] * gu_b
                if coeff == 0:
                    continue
                lu, lv = graph.vertices[u], graph.vertices[v]
                signed = alg.wedge_index(lu, lv)
                if signed is None:
                    raise PreconditionViolation(
                        f"image of wedge {a}^{b} meets the non-edge wedge {lu}^{lv}; "
                        "the map does not respect the coherent components"
                    )
                sign, idx = signed
                full[n + idx][n + col] = sign * coeff
    return RationalMatrix(full)


def extend_permutation(alg: GraphLieAlgebra, p) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The extension of a vertex permutation to V + W as a signed permutation.

    Returns (sigma, signs): basis vector i goes to signs[i] times basis vector
    sigma[i]. A vertex v goes to p(v); the wedge a^b goes to p(a)^p(b), which
    is +-1 times an edge wedge. Raises PreconditionViolation when some image
    is a non-edge, i.e. when p is not a graph automorphism.
    """
    graph = alg.graph
    n = alg.dim_v
    sigma = [graph.index(p(v)) for v in graph.vertices]
    signs = [1] * n
    for a, b in alg.w_basis:
        signed = alg.wedge_index(p(a), p(b))
        if signed is None:
            raise PreconditionViolation(
                f"{p.cycle_string()} sends the wedge {a}^{b} to the non-edge {p(a)}^{p(b)}"
            )
        sign, idx = signed
        sigma.append(n + idx)
        signs.append(sign)
    return tuple(sigma), tuple(signs)


def is_algebra_automorphism(alg: GraphLieAlgebra, m) -> bool:
    """Exact check: m is invertible and preserves the bracket on all basis pairs.

    Brackets land in W and depend only on the V-parts of their arguments, so
    the condition on all pairs of basis images comes down to two parts:
    every wedge column has zero V-rows (then each pair involving a wedge
    column brackets to zero on both sides), and each pair of vertex columns
    brackets to the signed wedge column of the pair's edge, or to zero for a
    non-edge. Integral inputs are checked on ints, others on their Fractions.
    """
    m = coerce_matrix(m)
    dim = alg.dimension
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
    if m.det() == 0:
        return False
    rows = _exact_rows(m)
    n = alg.dim_v
    if any(rows[i][j] for i in range(n) for j in range(n, dim)):
        return False
    cols = list(zip(*rows))
    graph = alg.graph
    edges = [(graph.index(a), graph.index(b)) for a, b in alg.w_basis]
    zero = [0] * alg.dim_w
    for x in range(n):
        cx = cols[x]
        for y in range(x + 1, n):
            cy = cols[y]
            lhs = [cx[a] * cy[b] - cx[b] * cy[a] for a, b in edges]
            signed = alg.wedge_index(alg.v_basis[x], alg.v_basis[y])
            if signed is None:
                rhs = zero
            else:
                sign, idx = signed
                rhs = [sign * c for c in cols[n + idx][n:]]
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Eigenvalue bookkeeping on W


@dataclass(frozen=True)
class AlgebraicNumber:
    """An algebraic integer: a monic integer annihilator plus a numeric location.

    The annihilator is exact; the approximation is for display and sorting
    only. Products carry an exact annihilator, the characteristic polynomial
    of the Kronecker product of the companion matrices, which may be
    non-minimal.
    """

    annihilator: IntPolynomial
    approx: complex

    def __post_init__(self):
        if not self.annihilator.is_monic:
            raise ValueError("annihilator must be monic")

    def __mul__(self, other: "AlgebraicNumber") -> "AlgebraicNumber":
        # the products lambda_i mu_j have power sums s_k(self) * s_k(other)
        n = self.annihilator.degree * other.annihilator.degree
        sums = zip(power_sums(self.annihilator, n), power_sums(other.annihilator, n))
        return AlgebraicNumber(from_power_sums([a * b for a, b in sums]), self.approx * other.approx)

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.approx:.6g}, root of {self.annihilator})"


def algebra_eigenvalue_products(part: CoherentPartition, spectra) -> list:
    """All wedge-space eigenvalue products implied by per-component spectra.

    Adjacent distinct components contribute every cross product; a complete
    component of size >= 2 contributes its internal pairwise products. Spectra
    entries only need multiplication, so exact rationals, floats, or
    AlgebraicNumber descriptors all work.
    """
    spectra = [list(s) for s in spectra]
    if len(spectra) != part.num_components:
        raise ValueError("one spectrum per component is required")
    for comp, spec in zip(part.components, spectra):
        if len(spec) != len(comp):
            raise ValueError(
                f"component of size {len(comp)} got a spectrum of size {len(spec)}"
            )
    out = []
    for i, j in part.quotient_edges:
        for a in spectra[i]:
            for b in spectra[j]:
                out.append(a * b)
    for i, loop in enumerate(part.loops):
        if loop:
            spec = spectra[i]
            for p in range(len(spec)):
                for q in range(p + 1, len(spec)):
                    out.append(spec[p] * spec[q])
    return out
