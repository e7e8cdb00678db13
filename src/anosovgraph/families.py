"""Parameterized graph families with cyclic symmetry whose algebras carry
certified hyperbolic automorphisms.

Family I chains pairs of components swapped by an order-2 automorphism;
its modified variant puts complete components at the chain's ends. Family II
arranges components in a cycle rotated by an order-n automorphism; the
order-4 case needs all components complete because a plain 4-cycle is not a
quotient graph of any simple graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GraphInputError
from .graphs import Graph, VertexPermutation

FOUR_CYCLE_MESSAGE = (
    "a simple cycle on 4 components can not be realized as a quotient graph; "
    "use family II-Z4, which makes all four components complete"
)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one family instance.

    Family "I" takes m >= 1 and component half-sizes ℓ_1..ℓ_m (ℓ_i >= 2,
    ℓ_m >= 3). "I-modified" takes m >= 3 with fixed sizes 3,2,..,2,3.
    "II" takes n >= 3, n != 4, and a component size >= 3; "II-Z4" only the
    component size >= 3.
    """

    family: str
    m: int | None = None
    sizes: tuple[int, ...] | None = None
    n: int | None = None
    size: int = 3


class FamilyInstance(NamedTuple):
    graph: Graph
    generators: tuple[VertexPermutation, ...]
    expected_dimension: int


def _component_labels(index: int, size: int) -> list[str]:
    return [f"λ{index}_{p}" for p in range(1, size + 1)]


def _component_graph(sizes, complete_indices, quotient_edges) -> tuple[Graph, list[list[str]]]:
    comps = [_component_labels(i + 1, s) for i, s in enumerate(sizes)]
    vertices = [v for comp in comps for v in comp]
    edges = []
    for i in complete_indices:
        edges.extend(itertools.combinations(comps[i], 2))
    for i, j in quotient_edges:
        edges.extend((u, v) for u in comps[i] for v in comps[j])
    return Graph(vertices, edges), comps


def _pair_swap(graph: Graph, comps, pairs) -> VertexPermutation:
    mapping = {v: v for v in graph.vertices}
    for i, j in pairs:
        for u, v in zip(comps[i], comps[j]):
            mapping[u] = v
            mapping[v] = u
    return VertexPermutation(graph.vertices, mapping)


def _swapped_chain(sizes, complete_indices) -> tuple[Graph, VertexPermutation]:
    """Two components of each size, joined in a path (odd side ascending, then
    even side descending, 0-based), with each pair swapped by one involution."""
    m = len(sizes)
    path = list(range(0, 2 * m, 2)) + list(range(2 * m - 1, 0, -2))
    comp_sizes = [s for s in sizes for _ in (0, 1)]
    graph, comps = _component_graph(comp_sizes, complete_indices, list(zip(path, path[1:])))
    return graph, _pair_swap(graph, comps, [(2 * t, 2 * t + 1) for t in range(m)])


def family_I(m: int, sizes) -> FamilyInstance:
    sizes = tuple(int(s) for s in sizes)
    if m < 1:
        raise GraphInputError("family I needs m >= 1")
    if len(sizes) != m:
        raise GraphInputError(f"family I with m={m} needs {m} sizes, got {len(sizes)}")
    if sizes[-1] < 3:
        raise GraphInputError("family I needs the last size >= 3 (its orbit carries c = 2)")
    if any(s < 2 for s in sizes):
        raise GraphInputError("family I needs every size >= 2")
    graph, swap = _swapped_chain(sizes, [])
    dim = sum(2 * s for s in sizes) + (
        2 * sum(sizes[i] * sizes[i + 1] for i in range(m - 1)) + sizes[-1] ** 2
    )
    return FamilyInstance(graph, (swap,), dim)


def family_I_modified(m: int) -> FamilyInstance:
    """Chain with complete end components; dimension 12m + 19."""
    if m < 3:
        raise GraphInputError("the modified family needs m >= 3")
    graph, swap = _swapped_chain((3,) + (2,) * (m - 2) + (3,), [0, 1])
    dim = 12 * m + 19
    return FamilyInstance(graph, (swap,), dim)


def _rotated_cycle(n: int, size: int, complete_indices) -> tuple[Graph, VertexPermutation]:
    """n components of the given size joined in a cycle, rotated one step by an order-n automorphism."""
    graph, comps = _component_graph([size] * n, complete_indices, [(i, (i + 1) % n) for i in range(n)])
    mapping = {}
    for i in range(n):
        for u, v in zip(comps[i], comps[(i + 1) % n]):
            mapping[u] = v
    return graph, VertexPermutation(graph.vertices, mapping)


def family_II(n: int, size: int = 3) -> FamilyInstance:
    if n < 3:
        raise GraphInputError("family II needs n >= 3")
    if n == 4:
        raise GraphInputError(FOUR_CYCLE_MESSAGE)
    if size < 3:
        raise GraphInputError("family II needs component size >= 3 (every orbit carries c = 2)")
    graph, rot = _rotated_cycle(n, size, [])
    dim = size * n + size * size * n
    return FamilyInstance(graph, (rot,), dim)


def family_II_z4(size: int = 3) -> FamilyInstance:
    """Order-4 rotation of four complete components in a cycle; dimension
    4ℓ + 2ℓ(ℓ-1) + 4ℓ² for component size ℓ."""
    if size < 3:
        raise GraphInputError("family II-Z4 needs component size >= 3")
    graph, rot = _rotated_cycle(4, size, [0, 1, 2, 3])
    dim = 4 * size + 2 * size * (size - 1) + 4 * size * size
    return FamilyInstance(graph, (rot,), dim)


def generate(spec: FamilySpec) -> FamilyInstance:
    """Build the graph, holonomy generator, and expected dimension for a spec."""
    if spec.family == "I":
        if spec.m is None or spec.sizes is None:
            raise GraphInputError("family I needs m and sizes")
        return family_I(spec.m, spec.sizes)
    if spec.family == "I-modified":
        if spec.m is None:
            raise GraphInputError("the modified family needs m")
        return family_I_modified(spec.m)
    if spec.family == "II":
        if spec.n is None:
            raise GraphInputError("family II needs n")
        return family_II(spec.n, spec.size)
    if spec.family == "II-Z4":
        return family_II_z4(spec.size)
    raise GraphInputError(f"unknown family {spec.family!r}")
