"""Finite simple graphs, the neighborhood-containment relation, coherent components.

The central relation: a vertex ``a`` precedes ``b`` when the open neighborhood
of ``a`` is contained in the closed neighborhood of ``b``. Mutual precedence is
an equivalence; its classes (the coherent components) induce complete or
discrete subgraphs and carry a quotient graph with loops at complete classes.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from math import lcm

from .errors import BoundExceeded, GraphInputError, PermutationError, PreconditionViolation, checkpoint


class Graph:
    """Immutable finite simple graph with a canonical (input) vertex order."""

    __slots__ = ("vertices", "edges", "_index", "_adjacency")

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        index = {}
        for v in vertices:
            if v in index:
                raise GraphInputError(f"duplicate vertex label {v!r}")
            index[v] = len(index)
        adjacency = {v: set() for v in vertices}
        canonical = []
        seen = set()
        for e in edges:
            u, v = e
            u, v = str(u), str(v)
            if u not in index:
                raise GraphInputError(f"edge endpoint {u!r} is not a listed vertex")
            if v not in index:
                raise GraphInputError(f"edge endpoint {v!r} is not a listed vertex")
            if u == v:
                raise GraphInputError(f"loop edge at {u!r} (simple graphs only)")
            if index[u] > index[v]:
                u, v = v, u
            if (u, v) in seen:
                raise GraphInputError(f"duplicate edge {u!r}-{v!r}")
            seen.add((u, v))
            canonical.append((u, v))
            adjacency[u].add(v)
            adjacency[v].add(u)
        canonical.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adjacency", {v: frozenset(adjacency[v]) for v in vertices})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphInputError(f"unknown vertex {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adjacency.get(u, frozenset())

    def open_neighborhood(self, v: str) -> frozenset:
        self.index(v)
        return self._adjacency[v]

    def closed_neighborhood(self, v: str) -> frozenset:
        return self.open_neighborhood(v) | {v}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}


# ---------------------------------------------------------------------------
# Standard constructions


def discrete_graph(n: int, prefix: str = "v") -> Graph:
    return Graph([f"{prefix}{i}" for i in range(1, n + 1)], [])


def complete_graph(n: int, prefix: str = "v") -> Graph:
    labels = [f"{prefix}{i}" for i in range(1, n + 1)]
    return Graph(labels, list(itertools.combinations(labels, 2)))


def cycle_graph(n: int, prefix: str = "v") -> Graph:
    if n < 3:
        raise GraphInputError("cycle graphs need at least 3 vertices")
    labels = [f"{prefix}{i}" for i in range(1, n + 1)]
    return Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    left = [f"a{i}" for i in range(1, a + 1)]
    right = [f"b{i}" for i in range(1, b + 1)]
    return Graph(left + right, [(u, v) for u in left for v in right])


# ---------------------------------------------------------------------------
# Parsing


def _json_object(text: str):
    """The decoded JSON object when text is JSON (its first non-blank character is "{"), else None."""
    if not text.lstrip().startswith("{"):
        return None
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise GraphInputError(f"invalid JSON: {exc}") from None


def parse_graph(text: str) -> Graph:
    """Parse a graph from JSON or plain text.

    JSON form: {"vertices": ["a", "b"], "edges": [["a", "b"]]}.
    Text form: one block of vertex names (whitespace-separated), a line "--",
    then one edge "u v" per line.
    """
    data = _json_object(text)
    if data is not None:
        return graph_from_json_dict(data)
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if "--" not in lines:
        raise GraphInputError('text form needs a "--" line between vertices and edges')
    split = lines.index("--")
    vertices = [tok for line in lines[:split] for tok in line.split()]
    edges = []
    for line in lines[split + 1 :]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphInputError(f"edge line must have two vertex names: {line!r}")
        edges.append((parts[0], parts[1]))
    if not vertices:
        raise GraphInputError("no vertices listed")
    return Graph(vertices, edges)


def graph_from_json_dict(data) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise GraphInputError('JSON graph needs "vertices" and "edges" keys')
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphInputError('"vertices" and "edges" must be lists')
    if not vertices:
        raise GraphInputError("no vertices listed")
    for v in vertices:
        if not isinstance(v, str):
            raise GraphInputError(f"vertex label must be a string: {v!r}")
    pairs = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphInputError(f"edge must be a pair: {e!r}")
        if not all(isinstance(v, str) for v in e):
            raise GraphInputError(f"edge endpoints must be vertex labels (strings): {e!r}")
        pairs.append((e[0], e[1]))
    return Graph(vertices, pairs)


# ---------------------------------------------------------------------------
# Vertex permutations


def index_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a position permutation, each from its smallest index, in order of that index."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        cycles.append(cycle)
    return cycles


class VertexPermutation:
    """A bijection on a fixed vertex domain, with canonical cycle form.

    Stored on positions: ``_images[i]`` is the domain position of the image of
    ``domain[i]``, and ``_index`` maps each label to its position. A product or
    inverse shares its operand's domain and index and is built from positions,
    so only a mapping that comes from outside is validated. Labels appear only
    at the edges: `__call__`, `image_of`, `cycles` and the sort order, which
    compares the image labels in domain order.
    """

    __slots__ = ("domain", "_index", "_images")

    def __init__(self, domain, mapping):
        domain = tuple(domain)
        index = {v: i for i, v in enumerate(domain)}
        if len(index) != len(domain):
            raise PermutationError("domain lists a vertex twice")
        mapping = dict(mapping)
        if mapping.keys() != index.keys() or set(mapping.values()) != index.keys():
            raise PermutationError("mapping is not a bijection on the domain")
        self._set(domain, index, tuple(index[mapping[v]] for v in domain))

    def _set(self, domain, index, images) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_images", images)

    def _with_images(self, images: tuple[int, ...]) -> "VertexPermutation":
        """A permutation on this domain from image positions known to form a bijection."""
        p = object.__new__(VertexPermutation)
        p._set(self.domain, self._index, images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("VertexPermutation is immutable")

    @classmethod
    def identity(cls, domain) -> "VertexPermutation":
        domain = tuple(domain)
        return cls(domain, {v: v for v in domain})

    @classmethod
    def from_cycles(cls, text: str, domain) -> "VertexPermutation":
        """Parse cycle notation "(a b)(c d e)"; fixed points omitted; "" is the identity."""
        domain = tuple(domain)
        mapping = {v: v for v in domain}
        body = text.strip()
        if body in ("", "()", "id"):
            return cls(domain, mapping)
        if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", body):
            raise PermutationError(f"malformed cycle notation: {text!r}")
        moved = set()
        for cycle_text in re.findall(r"\(([^()]*)\)", body):
            names = [tok for tok in re.split(r"[,\s]+", cycle_text.strip()) if tok]
            if len(names) < 2:
                continue
            for name in names:
                if name not in mapping:
                    raise PermutationError(f"unknown vertex {name!r} in cycle notation")
                if name in moved:
                    raise PermutationError(f"vertex {name!r} appears twice in cycle notation")
                moved.add(name)
            for i, name in enumerate(names):
                mapping[name] = names[(i + 1) % len(names)]
        return cls(domain, mapping)

    @classmethod
    def generated_group(cls, generators, domain, order_bound: int) -> list["VertexPermutation"]:
        """Every element of the group the generators generate on domain, unordered.

        The closure composes bare position tuples and wraps only the distinct
        elements. Raises BoundExceeded as soon as more than order_bound are found,
        the identity included, so an order_bound below 1 admits no group.
        Polls `checkpoint` once per frontier round.
        """
        identity = cls.identity(domain)
        gens = []
        for g in generators:
            if g.domain != identity.domain:
                raise PermutationError("permutations have different domains")
            gens.append(g._images.__getitem__)
        if order_bound < 1:
            raise BoundExceeded(f"holonomy group order exceeds the bound {order_bound}")
        elements = {identity._images}
        frontier = [identity._images]
        while frontier:
            checkpoint()
            new_frontier = []
            for g in gens:
                for h in frontier:
                    prod = tuple(map(g, h))
                    if prod not in elements:
                        elements.add(prod)
                        new_frontier.append(prod)
                        if len(elements) > order_bound:
                            raise BoundExceeded(f"holonomy group order exceeds the bound {order_bound}")
            frontier = new_frontier
        return [identity._with_images(images) for images in elements]

    def __call__(self, v: str) -> str:
        try:
            return self.domain[self._images[self._index[v]]]
        except KeyError:
            raise PermutationError(f"{v!r} is not in the permutation domain") from None

    def __mul__(self, other: "VertexPermutation") -> "VertexPermutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if self.domain != other.domain:
            raise PermutationError("permutations have different domains")
        return self._with_images(tuple(map(self._images.__getitem__, other._images)))

    def inverse(self) -> "VertexPermutation":
        inverse = [0] * len(self._images)
        for i, j in enumerate(self._images):
            inverse[j] = i
        return self._with_images(tuple(inverse))

    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """Disjoint cycles, fixed points omitted; each cycle starts at its earliest
        domain element and cycles are ordered by that element."""
        return tuple(
            tuple(self.domain[i] for i in cycle)
            for cycle in index_cycles(self._images)
            if len(cycle) > 1
        )

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(c) + ")" for c in cycles)

    def order(self) -> int:
        return lcm(1, *(len(c) for c in index_cycles(self._images)))

    def image_labels(self) -> tuple[str, ...]:
        """The image of each domain element, in domain order: the canonical sort key."""
        return tuple(map(self.domain.__getitem__, self._images))

    def image_of(self, vertex_set) -> frozenset:
        return frozenset(map(self, vertex_set))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexPermutation)
            and self._images == other._images
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "VertexPermutation") -> bool:
        return self.image_labels() < other.image_labels()

    def __repr__(self) -> str:
        return f"VertexPermutation({self.cycle_string()})"


def parse_holonomy_generators(text: str, graph: Graph) -> tuple[VertexPermutation, ...]:
    """Parse a semicolon-separated list of cycle strings, e.g. "(a b)(c d);(e f)"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(
        VertexPermutation.from_cycles(part, graph.vertices) for part in text.split(";")
    )


# ---------------------------------------------------------------------------
# The precedence relation and coherent components


def component_label(i: int) -> str:
    """The report label of component i (0-based): lambda_1, lambda_2, ..."""
    return f"lambda_{i + 1}"


class CoherentPartition:
    """Coherent components of a graph with their induced order and quotient graph.

    Components are enumerated topologically: if component i precedes component
    j in the induced order, then i <= j. Ties keep first-appearance order.
    ``member_positions[i]`` holds the graph positions of component i's
    vertices and ``component_of[r]`` the component of the vertex at position
    r (None if no component lists it); `induced_component_permutation` reads
    both.
    """

    __slots__ = (
        "graph", "components", "kinds", "order_pairs", "quotient_edges",
        "member_positions", "component_of",
    )

    def __init__(self, graph, components, kinds, order_pairs, quotient_edges):
        components = tuple(tuple(c) for c in components)
        member_positions = tuple(tuple(graph.index(v) for v in comp) for comp in components)
        component_of = [None] * graph.num_vertices
        for i, positions in enumerate(member_positions):
            for r in positions:
                component_of[r] = i
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "member_positions", member_positions)
        object.__setattr__(self, "component_of", tuple(component_of))
        object.__setattr__(self, "kinds", tuple(kinds))
        object.__setattr__(self, "order_pairs", frozenset(order_pairs))
        object.__setattr__(self, "quotient_edges", tuple(sorted(tuple(sorted(e)) for e in quotient_edges)))

    def __setattr__(self, name, value):
        raise AttributeError("CoherentPartition is immutable")

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def loops(self) -> tuple[bool, ...]:
        """Loop flags of the quotient graph, derived from component kind."""
        return tuple(kind == "complete" for kind in self.kinds)

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {
                    "label": component_label(i),
                    "vertices": list(comp),
                    "kind": kind,
                    "loop": loop,
                }
                for i, (comp, kind, loop) in enumerate(zip(self.components, self.kinds, self.loops))
            ],
            "order": sorted([i + 1, j + 1] for i, j in self.order_pairs),
            "quotient_edges": [[i + 1, j + 1] for i, j in self.quotient_edges],
        }

    def __repr__(self) -> str:
        return f"CoherentPartition({self.component_sizes()})"


def coherent_components(graph: Graph) -> CoherentPartition:
    """Partition by mutual neighborhood containment, with order and quotient graph.

    Mutual precedence of a != b means equal open neighborhoods (non-adjacent
    twins) or equal closed ones (adjacent twins), so the classes are found by
    hashing neighborhoods, and only class representatives are compared for
    the order. The enumeration is topological, ties broken by first
    appearance; see `CoherentPartition`.
    """
    verts = graph.vertices
    open_n = {v: graph.open_neighborhood(v) for v in verts}
    closed_n = {v: open_n[v] | {v} for v in verts}
    open_twins: dict[frozenset, list[str]] = {}
    closed_twins: dict[frozenset, list[str]] = {}
    for v in verts:
        open_twins.setdefault(open_n[v], []).append(v)
        closed_twins.setdefault(closed_n[v], []).append(v)

    # Equivalence classes in first-appearance order; a class of two or more
    # is all open twins or all closed twins, never a mix.
    raw_components: list[list[str]] = []
    assigned: set[str] = set()
    for v in verts:
        if v in assigned:
            continue
        comp = open_twins[open_n[v]]
        if len(comp) == 1:
            comp = closed_twins[closed_n[v]]
        assigned.update(comp)
        raw_components.append(comp)

    # Induced strict order between classes, via representatives.
    reps = [comp[0] for comp in raw_components]
    k = len(reps)
    strict = {
        (i, j) for i in range(k) for j in range(k) if i != j and open_n[reps[i]] <= closed_n[reps[j]]
    }

    # Topological enumeration, ties broken by original index: Kahn's algorithm
    # with a min-heap, so each step takes the smallest index with no remaining
    # predecessor.
    successors: list[list[int]] = [[] for _ in range(k)]
    indegree = [0] * k
    for i, j in strict:
        successors[i].append(j)
        indegree[j] += 1
    ready = [i for i in range(k) if indegree[i] == 0]
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    relabel = {old: new for new, old in enumerate(order)}

    components = [tuple(raw_components[old]) for old in order]
    order_pairs = {(relabel[i], relabel[j]) for i, j in strict}

    kinds = []
    for comp in components:
        if len(comp) == 1:
            kinds.append("singleton")
        elif graph.has_edge(comp[0], comp[1]):
            kinds.append("complete")
        else:
            kinds.append("discrete")

    # Two classes are joined by every edge between them or by none.
    component_of = {v: i for i, comp in enumerate(components) for v in comp}
    quotient_edges = {
        tuple(sorted((component_of[u], component_of[v])))
        for u, v in graph.edges
        if component_of[u] != component_of[v]
    }

    return CoherentPartition(graph, components, kinds, order_pairs, quotient_edges)


# ---------------------------------------------------------------------------
# Permutation predicates


def _check_domain(graph: Graph, p: VertexPermutation) -> None:
    if p.domain != graph.vertices and set(p.domain) != set(graph.vertices):
        raise PermutationError("permutation domain does not match the graph's vertices")


def is_graph_automorphism(graph: Graph, p: VertexPermutation) -> bool:
    """True when p maps edges onto edges (bijectively, since p is a bijection)."""
    _check_domain(graph, p)
    return all(graph.has_edge(p(u), p(v)) for u, v in graph.edges)


def induced_component_permutation(part: CoherentPartition, p: VertexPermutation) -> tuple[int, ...]:
    """The permutation of component indices induced by a precedence-preserving p.

    Works on graph positions: component i goes to the component j of its first
    vertex's image, and every other member must land in j too, with equal
    sizes, so that (p being a bijection) p maps component i onto component j.
    """
    graph = part.graph
    if p.domain == graph.vertices:
        images = p._images
    else:
        _check_domain(graph, p)
        images = tuple(graph.index(p(v)) for v in graph.vertices)
    component_of = part.component_of
    members = part.member_positions
    result = []
    for i, positions in enumerate(members):
        j = component_of[images[positions[0]]]
        if (
            j is None
            or len(members[j]) != len(positions)
            or any(component_of[images[r]] != j for r in positions)
        ):
            raise PreconditionViolation(
                f"permutation does not map component {i + 1} onto a component"
            )
        result.append(j)
    return tuple(result)
