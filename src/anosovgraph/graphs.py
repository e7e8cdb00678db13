"""Finite simple graphs, the neighborhood-containment relation, coherent components.

The central relation: a vertex ``a`` precedes ``b`` when the open neighborhood
of ``a`` is contained in the closed neighborhood of ``b``. Mutual precedence is
an equivalence; its classes (the coherent components) induce complete or
discrete subgraphs and carry a quotient graph with loops at complete classes.

A graph keeps its adjacency on vertex positions, one int bitmask per vertex,
so the classes, their order and the quotient edges come from bit operations
on those masks: a graph on n vertices holds at most n^2/8 bytes of masks.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from math import lcm
from operator import or_

from .errors import GraphInputError, PermutationError, PreconditionViolation


class Graph:
    """Immutable finite simple graph with a canonical (input) vertex order.

    Bit j of ``_masks[i]`` is set when the vertices at positions i and j are
    adjacent. ``edges`` lists each edge once, from its earlier vertex, ordered
    by the positions of its endpoints.
    """

    __slots__ = ("vertices", "edges", "_index", "_masks")

    def __init__(self, vertices, edges):
        vertices = tuple(map(str, vertices))
        n = len(vertices)
        index = dict(zip(vertices, range(n)))
        if len(index) != n:
            seen = set()
            for v in vertices:
                if v in seen:
                    raise GraphInputError(f"duplicate vertex label {v!r}")
                seen.add(v)
        edges = list(edges)
        try:
            pairs = [(index[str(u)], index[str(v)]) for u, v in edges]
        except (KeyError, TypeError, ValueError):  # an unknown endpoint, or an edge that is no pair
            raise _first_bad_edge(index, edges) from None
        bits = [1 << i for i in range(n)]
        masks = [0] * n
        for a, b in pairs:
            masks[a] |= bits[b]
            masks[b] |= bits[a]
        # A new edge sets two bits, a loop one and a repeated edge none.
        if sum(map(int.bit_count, masks)) != 2 * len(pairs):
            raise _first_bad_edge(index, edges)
        keys = sorted([a * n + b if a < b else b * n + a for a, b in pairs])
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple([(vertices[k // n], vertices[k % n]) for k in keys]))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_masks", masks)

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

    def open_neighborhood(self, v: str) -> frozenset:
        mask = self._masks[self.index(v)]
        return frozenset(w for j, w in enumerate(self.vertices) if mask >> j & 1)

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


def _first_bad_edge(index: dict, edges: list) -> GraphInputError:
    """The error of the first edge, in input order, with an unknown endpoint, a loop or a repeat."""
    seen = set()
    for u, v in edges:
        u, v = str(u), str(v)
        for w in (u, v):
            if w not in index:
                return GraphInputError(f"edge endpoint {w!r} is not a listed vertex")
        if u == v:
            return GraphInputError(f"loop edge at {u!r} (simple graphs only)")
        if index[u] > index[v]:
            u, v = v, u
        if (u, v) in seen:
            return GraphInputError(f"duplicate edge {u!r}-{v!r}")
        seen.add((u, v))
    raise AssertionError("no bad edge")


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
    if not all(map(isinstance, vertices, itertools.repeat(str))):
        bad = next(v for v in vertices if not isinstance(v, str))
        raise GraphInputError(f"vertex label must be a string: {bad!r}")
    # Checked in bulk; only a failure walks the edges to name the first bad one.
    if not (
        all(map(isinstance, edges, itertools.repeat((list, tuple))))
        and all(map((2).__eq__, map(len, edges)))
        and all(map(isinstance, itertools.chain.from_iterable(edges), itertools.repeat(str)))
    ):
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise GraphInputError(f"edge must be a pair: {e!r}")
            if not all(isinstance(v, str) for v in e):
                raise GraphInputError(f"edge endpoints must be vertex labels (strings): {e!r}")
    return Graph(vertices, edges)


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
    ``domain[i]``, and ``_index`` maps each label to its position. A product
    shares its operands' domain and index and is built from positions, so
    only a mapping that comes from outside is validated. Labels appear only
    at the edges: `__call__` and `cycles`. `positions` and `with_positions`
    let position arithmetic elsewhere (the stabilizer chains of `holonomy`)
    read and make permutations without labels.
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

    @property
    def positions(self) -> tuple[int, ...]:
        """The domain position of each domain element's image, in domain order."""
        return self._images

    def with_positions(self, images: tuple[int, ...]) -> "VertexPermutation":
        """A permutation on this domain from image positions known to form a bijection (unchecked)."""
        return _on_positions(self.domain, self._index, images)

    def __setattr__(self, name, value):
        raise AttributeError("VertexPermutation is immutable")

    @classmethod
    def identity(cls, domain) -> "VertexPermutation":
        domain = tuple(domain)
        index = {v: i for i, v in enumerate(domain)}
        if len(index) != len(domain):
            raise PermutationError("domain lists a vertex twice")
        return _on_positions(domain, index, tuple(range(len(domain))))

    @classmethod
    def from_cycles(cls, text: str, domain) -> "VertexPermutation":
        """Parse cycle notation "(a b)(c d e)"; fixed points omitted; "" is the identity."""
        domain = tuple(domain)
        index = {v: i for i, v in enumerate(dict.fromkeys(domain))}
        images = _cycle_positions(text, index)  # notation errors come before a repeated label's
        if len(index) != len(domain):
            raise PermutationError("domain lists a vertex twice")
        return _on_positions(domain, index, images)

    def __call__(self, v: str) -> str:
        try:
            return self.domain[self._images[self._index[v]]]
        except KeyError:
            raise PermutationError(f"{v!r} is not in the permutation domain") from None

    def __mul__(self, other: "VertexPermutation") -> "VertexPermutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if self.domain != other.domain:
            raise PermutationError("permutations have different domains")
        return self.with_positions(tuple(map(self._images.__getitem__, other._images)))

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexPermutation)
            and self._images == other._images
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"VertexPermutation({self.cycle_string()})"


def _on_positions(domain, index, images) -> VertexPermutation:
    """The permutation with these image positions on domain, whose positions index holds (unchecked)."""
    p = object.__new__(VertexPermutation)
    p._set(domain, index, images)
    return p


def _cycle_positions(text: str, index: dict) -> tuple[int, ...]:
    """The image positions of cycle notation on the domain whose label positions index holds."""
    images = list(range(len(index)))
    body = text.strip()
    if body in ("", "()", "id"):
        return tuple(images)
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", body):
        raise PermutationError(f"malformed cycle notation: {text!r}")
    moved = set()
    for cycle_text in re.findall(r"\(([^()]*)\)", body):
        names = [tok for tok in re.split(r"[,\s]+", cycle_text.strip()) if tok]
        if len(names) < 2:
            continue
        for name in names:
            if name not in index:
                raise PermutationError(f"unknown vertex {name!r} in cycle notation")
            if name in moved:
                raise PermutationError(f"vertex {name!r} appears twice in cycle notation")
            moved.add(name)
        cycle = [index[name] for name in names]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def parse_holonomy_generators(text: str, graph: Graph) -> tuple[VertexPermutation, ...]:
    """Parse a semicolon-separated list of cycle strings, e.g. "(a b)(c d);(e f)".

    Each generator is built on positions through the graph's own index, so its
    domain is `graph.vertices`.
    """
    text = text.strip()
    if not text:
        return ()
    return tuple(
        _on_positions(graph.vertices, graph._index, _cycle_positions(part, graph._index))
        for part in text.split(";")
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
    vertices, in increasing order, and ``component_of[r]`` the component of
    the vertex at position r; `induced_component_permutation` reads both.
    ``quotient_edges`` are pairs i < j in increasing order.
    """

    __slots__ = (
        "graph", "components", "kinds", "order_pairs", "quotient_edges",
        "member_positions", "component_of",
    )

    def __init__(self, graph, member_positions, component_of, kinds, order_pairs, quotient_edges):
        label = graph.vertices.__getitem__
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "components", tuple(tuple(map(label, ms)) for ms in member_positions))
        object.__setattr__(self, "member_positions", tuple(member_positions))
        object.__setattr__(self, "component_of", tuple(component_of))
        object.__setattr__(self, "kinds", tuple(kinds))
        object.__setattr__(self, "order_pairs", frozenset(order_pairs))
        object.__setattr__(self, "quotient_edges", tuple(quotient_edges))

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

    Everything runs on the graph's position bitmasks. Mutual precedence of
    a != b means equal open neighborhoods (non-adjacent twins) or equal
    closed ones (adjacent twins), so the classes are found by hashing masks;
    a class of two or more is all open twins or all closed twins, never a
    mix. Only class representatives are compared for the order: i precedes
    j when ``open[rep_i] & ~closed[rep_j]`` is 0. Two classes are joined by
    every edge between them or by none, so one test of a representative's
    mask against the other class's members gives each quotient edge. The
    enumeration is topological, ties broken by first appearance; see
    `CoherentPartition`.
    """
    masks = graph._masks
    n = len(masks)
    bits = [1 << i for i in range(n)]
    closed = list(map(or_, masks, bits))
    # The first and last position of each open mask, the first of each closed
    # one. A vertex with an open twin is in its open class, any other in its
    # closed class (maybe alone); a class is keyed by its first member, so
    # classes come in first-appearance order.
    first_open = dict(zip(reversed(masks), range(n - 1, -1, -1)))
    last_open = dict(zip(masks, range(n)))
    first_closed = dict(zip(reversed(closed), range(n - 1, -1, -1)))
    members: dict[int, list[int]] = {}
    for r, (m, c) in enumerate(zip(masks, closed)):
        rep = first_open[m]
        if rep == last_open[m]:
            rep = first_closed[c]
        members.setdefault(rep, []).append(r)
    reps = list(members)
    k = len(reps)

    # Induced strict order between classes, via representatives.
    not_closed = [~closed[r] for r in reps]
    successors = [
        [j for j, nc in enumerate(not_closed) if not masks[rep] & nc and j != i]
        for i, rep in enumerate(reps)
    ]

    # Topological enumeration, ties broken by original index: Kahn's algorithm
    # with a min-heap, so each step takes the smallest index with no remaining
    # predecessor.
    indegree = [0] * k
    for succ in successors:
        for j in succ:
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

    member_positions = [tuple(members[reps[old]]) for old in order]
    component_of = [0] * n
    for i, ms in enumerate(member_positions):
        for r in ms:
            component_of[r] = i
    order_pairs = [(relabel[i], relabel[j]) for i, succ in enumerate(successors) for j in succ]
    kinds = [
        "singleton" if len(ms) == 1 else "complete" if masks[ms[0]] >> ms[1] & 1 else "discrete"
        for ms in member_positions
    ]
    member_masks = [sum(map(bits.__getitem__, ms)) for ms in member_positions]
    quotient_edges = [
        (i, j)
        for i, ms in enumerate(member_positions)
        for j in range(i + 1, k)
        if masks[ms[0]] & member_masks[j]
    ]
    return CoherentPartition(graph, member_positions, component_of, kinds, order_pairs, quotient_edges)


# ---------------------------------------------------------------------------
# Permutation predicates


def _check_domain(graph: Graph, p: VertexPermutation) -> None:
    if p.domain != graph.vertices and set(p.domain) != set(graph.vertices):
        raise PermutationError("permutation domain does not match the graph's vertices")


def _graph_images(graph: Graph, p: VertexPermutation) -> tuple[int, ...]:
    """The graph position of p's image of each graph vertex, in graph order."""
    if p.domain == graph.vertices:
        return p._images
    _check_domain(graph, p)
    return tuple(graph.index(p(v)) for v in graph.vertices)


def is_graph_automorphism(graph: Graph, p: VertexPermutation) -> bool:
    """True when p maps edges onto edges (bijectively, since p is a bijection).

    One dict takes each label to its image's position, and each edge's image
    is one bit test in the graph's masks.
    """
    image = dict(zip(graph.vertices, _graph_images(graph, p)))
    masks = graph._masks
    return all(masks[image[u]] >> image[v] & 1 for u, v in graph.edges)


def induced_component_permutation(part: CoherentPartition, p: VertexPermutation) -> tuple[int, ...]:
    """The permutation of component indices induced by a precedence-preserving p.

    Works on graph positions: component i goes to the component j of its first
    vertex's image, and every other member must land in j too, with equal
    sizes, so that (p being a bijection) p maps component i onto component j.
    """
    images = _graph_images(part.graph, p)
    component_of = part.component_of
    members = part.member_positions
    result = []
    for i, positions in enumerate(members):
        j = component_of[images[positions[0]]]
        if len(members[j]) != len(positions) or any(component_of[images[r]] != j for r in positions):
            raise PreconditionViolation(
                f"permutation does not map component {i + 1} onto a component"
            )
        result.append(j)
    return tuple(result)
