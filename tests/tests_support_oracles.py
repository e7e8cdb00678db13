"""Dense and dict-based oracles for the tests: permutation matrices, the bracket of
coefficient vectors, the signed wedge index of a vertex pair, a vertex
permutation's extension to V+W as a signed permutation with the signed
commutation check the witness ran on V+W, and the label-dict vertex
permutation with its closure and component action, as `graphs` and
`holonomy` computed them before positions, and the position closure of
the whole group in canonical order that stabilizer chains replaced. Also the
graph helpers that only tests use: the closed neighborhood, the precedence
relation, its preservation, the brute-force group of order-preserving
component permutations, path graphs, and whether a permutation is the
identity. And the
product of f^e over (factor, multiplicity) pairs, which gives the V+W
characteristic polynomial from `liealg.extension_factors`. And a cancellation
token that counts its polls, and the x + 1/x substitution as a recurrence on
polynomials. And the coefficient-list Euclid mod a prime that the packed
`polynomials._monic_gcd_mod` replaced, and a polynomial shaped like the
benchmark's whole-polynomial inputs. And the token-list parser of human
polynomial syntax that `polynomials.parse_polynomial` replaced. And
`coherent_components` and `is_graph_automorphism` on label frozensets, as
they ran before the graph layer moved to position bitmasks."""

import heapq
import itertools
import re
from math import lcm

from anosovgraph.errors import BoundExceeded, CancelToken, GraphInputError, PermutationError, PreconditionViolation
from anosovgraph.exactmat import RationalMatrix
from anosovgraph.graphs import Graph, VertexPermutation
from anosovgraph.liealg import extension_factors
from anosovgraph.polynomials import MAX_PARSED_EXPONENT, IntPolynomial, from_power_sums, power_sums


class CancelOnCheck(CancelToken):
    """A token that counts its `check()` calls and cancels itself at call number `at`."""

    __slots__ = ("_at", "checks")

    def __init__(self, at=None):
        super().__init__()
        self._at = at
        self.checks = 0

    def check(self):
        self.checks += 1
        if self.checks == self._at:
            self.cancel()
        super().check()


def factor_product(factors):
    """The product of f^e over the (f, e) pairs."""
    out = IntPolynomial([1])
    for f, e in factors:
        for _ in range(e):
            out = out * f
    return out


def palindromic_to_interval_poly_oracle(g):
    """q with g(x) = x^s q(x + 1/x) for palindromic g of degree 2s, by the recurrence on polynomials.

    t_k, the polynomial in y = x + 1/x equal to x^k + x^(-k), satisfies
    t_k = y t_(k-1) - t_(k-2); q is the sum of g's upper coefficients times t_k.
    """
    s = g.degree // 2
    coeffs = g.coefficients
    q = IntPolynomial([coeffs[s]])
    t_prev = IntPolynomial([2])
    t_cur = IntPolynomial([0, 1])
    y = IntPolynomial([0, 1])
    for k in range(1, s + 1):
        q = q + IntPolynomial([coeffs[s + k] * c for c in t_cur.coefficients])
        t_prev, t_cur = t_cur, y * t_cur - t_prev
    return q


def monic_gcd_mod(a, b, prime):
    """Monic gcd in (Z/prime)[x] of two reduced coefficient lists (ascending), b's last entry nonzero.

    Euclid one leading term at a time, a Python loop over the coefficients.
    """
    while b:
        inv = pow(b[-1], -1, prime)
        n = len(b) - 1
        a = list(a)
        while len(a) > n:  # replace a by its remainder mod b, one leading term at a time
            c = a.pop() * inv % prime
            if c:
                shift = len(a) - n
                a[shift:] = [(x - c * y) % prime for x, y in zip(a[shift:], b)]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def powered(f, k):
    """The monic polynomial whose roots are the k-th powers of the roots of monic f."""
    return from_power_sums(power_sums(f, k * f.degree)[::k])


# (block polynomial, ascending; power): two palindromic quadratics, whose
# powers make the reciprocal gcd (degree 4, 31-bit middle coefficient), eight
# quadratics of determinant -1 to odd powers and ten cubic units with one root
# outside the unit circle; each power has about 15 bits of Mahler measure.
CERTIFY_WHOLE_BLOCKS = (
    ((1, -3, 1), 11),
    ((1, 4, 1), 8),
    ((-1, -1, 1), 23),
    ((-1, -2, 1), 13),
    ((-1, -3, 1), 9),
    ((-1, -4, 1), 7),
    ((-1, -1, 1), 25),
    ((-1, -2, 1), 15),
    ((-1, -3, 1), 11),
    ((-1, -4, 1), 9),
    ((-1, -1, 0, 1), 37),
    ((-1, 0, -1, 1), 27),
    ((-1, -1, -1, 1), 17),
    ((-1, 1, -2, 1), 18),
    ((-1, 0, -2, 1), 13),
    ((-1, -1, 0, 1), 38),
    ((-1, 0, -1, 1), 28),
    ((-1, -1, -1, 1), 18),
    ((-1, 1, -2, 1), 19),
    ((-1, 0, -2, 1), 14),
)


def certify_whole_poly():
    """A degree-50, 320-bit product of powered hyperbolic block polynomials, shaped like
    the benchmark's `certify --poly` inputs, and its reciprocal gcd."""
    blocks = [powered(IntPolynomial(f), k) for f, k in CERTIFY_WHOLE_BLOCKS]
    poly = IntPolynomial([1])
    for block in blocks:
        poly = poly * block
    return poly, blocks[0] * blocks[1]


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<x>x)|(?P<pow>\^)|(?P<op>[+-])|(?P<mul>\*))")


def _parse_int(digits):
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise GraphInputError(f"number with {len(digits)} digits is too long") from None


def oracle_tokens(text):
    """The (kind, text) tokens `parse_polynomial_oracle` reads, and the position
    after the last of them: where the first character that starts no token stands."""
    tokens = []
    pos = 0
    while (m := _TOKEN.match(text, pos)) is not None:
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens, pos


def parse_polynomial_oracle(text):
    """Human polynomial syntax by a token list and a grammar loop over it.

    Unlike `parse_polynomial`, it drops a `*` wherever it stands, and it refuses
    an exponent that int() cannot convert as too long, not as above the bound.
    """
    tokens, pos = oracle_tokens(text)
    if text[pos:].strip():
        raise GraphInputError(f"cannot parse polynomial near {text[pos:]!r}")
    coeffs = {}
    i = 0

    def take(kind):
        nonlocal i
        if i < len(tokens) and tokens[i][0] == kind:
            i += 1
            return tokens[i - 1][1]
        return None

    first = True
    while i < len(tokens):
        sign = 1
        op = take("op")
        if op is None and not first:
            raise GraphInputError("expected '+' or '-' between polynomial terms")
        if op == "-":
            sign = -1
        first = False
        num = take("num")
        take("mul")
        coef = sign * _parse_int(num) if num is not None else sign
        if take("x") is not None:
            if take("pow") is not None:
                exp = take("num")
                if exp is None:
                    raise GraphInputError("missing exponent after '^'")
                power = _parse_int(exp)
                if power > MAX_PARSED_EXPONENT:
                    raise BoundExceeded(f"exponent {power} exceeds the bound {MAX_PARSED_EXPONENT}")
            else:
                power = 1
        else:
            if num is None:
                raise GraphInputError("dangling sign in polynomial")
            power = 0
        coeffs[power] = coeffs.get(power, 0) + coef
    if not coeffs:
        raise GraphInputError("empty polynomial")
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return IntPolynomial(out)


def extension_product(part, component_polys):
    """The V+W characteristic polynomial of a block map: the product of its extension factors."""
    return factor_product(extension_factors(part, component_polys))


def is_identity(p):
    """True when the permutation moves no point: it has no cycle of length above one."""
    return not p.cycles()


def path_graph(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(1, n + 1)]
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def has_edge(graph, u, v):
    """Whether u and v are joined, read off the edge list (False for a label not in the graph)."""
    return (u, v) in graph.edges or (v, u) in graph.edges


def closed_neighborhood(graph, v):
    """The open neighborhood of v with v itself."""
    return graph.open_neighborhood(v) | {v}


def prec(graph, a, b):
    """True when the open neighborhood of a is contained in the closed one of b.

    Reflexive and transitive on every graph.
    """
    return graph.open_neighborhood(a) <= closed_neighborhood(graph, b)


def label_adjacency(graph):
    """Each vertex label's open neighborhood as a frozenset of labels, read off the edge list."""
    adjacency = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return {v: frozenset(nbrs) for v, nbrs in adjacency.items()}


def label_coherent_components(graph):
    """`coherent_components` on label frozensets, as `graphs` computed it before position bitmasks.

    Returns the fields of a `CoherentPartition` as a dict: the classes come
    from hashing open and closed neighborhoods, the order from frozenset
    containment between representatives, and the quotient edges from one
    sorted component pair per graph edge.
    """
    verts = graph.vertices
    open_n = label_adjacency(graph)
    closed_n = {v: open_n[v] | {v} for v in verts}
    open_twins, closed_twins = {}, {}
    for v in verts:
        open_twins.setdefault(open_n[v], []).append(v)
        closed_twins.setdefault(closed_n[v], []).append(v)
    raw_components, assigned = [], set()
    for v in verts:
        if v in assigned:
            continue
        comp = open_twins[open_n[v]]
        if len(comp) == 1:
            comp = closed_twins[closed_n[v]]
        assigned.update(comp)
        raw_components.append(comp)
    reps = [comp[0] for comp in raw_components]
    k = len(reps)
    strict = {(i, j) for i in range(k) for j in range(k) if i != j and open_n[reps[i]] <= closed_n[reps[j]]}
    successors, indegree = [[] for _ in range(k)], [0] * k
    for i, j in strict:
        successors[i].append(j)
        indegree[j] += 1
    ready = [i for i in range(k) if indegree[i] == 0]
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    relabel = {old: new for new, old in enumerate(order)}
    components = tuple(tuple(raw_components[old]) for old in order)
    kinds = tuple(
        "singleton" if len(comp) == 1 else "complete" if comp[1] in open_n[comp[0]] else "discrete"
        for comp in components
    )
    component_of = {v: i for i, comp in enumerate(components) for v in comp}
    quotient_edges = {
        tuple(sorted((component_of[u], component_of[v])))
        for u, v in graph.edges
        if component_of[u] != component_of[v]
    }
    return {
        "components": components,
        "kinds": kinds,
        "order_pairs": frozenset((relabel[i], relabel[j]) for i, j in strict),
        "quotient_edges": tuple(sorted(quotient_edges)),
        "member_positions": tuple(tuple(graph.index(v) for v in comp) for comp in components),
        "component_of": tuple(component_of[v] for v in verts),
    }


def label_is_graph_automorphism(graph, p):
    """`is_graph_automorphism` on label frozensets: each edge's image looked up in a neighborhood."""
    if p.domain != graph.vertices and set(p.domain) != set(graph.vertices):
        raise PermutationError("permutation domain does not match the graph's vertices")
    adjacency = label_adjacency(graph)
    return all(p(v) in adjacency[p(u)] for u, v in graph.edges)


def preserves_prec(graph, p):
    """True when a prec b implies p(a) prec p(b) for all vertex pairs."""
    verts = graph.vertices
    return all(prec(graph, p(a), p(b)) for a in verts for b in verts if prec(graph, a, b))


def component_order_group(part, max_components=8):
    """All permutations of the components preserving the induced order (brute force)."""
    k = part.num_components
    if k > max_components:
        raise BoundExceeded(f"{k} components exceed the brute-force bound {max_components}")
    return [
        perm
        for perm in itertools.permutations(range(k))
        if all((perm[i], perm[j]) in part.order_pairs for i, j in part.order_pairs)
    ]


def permutation_matrix(graph, p):
    """The matrix moving basis vector v to basis vector p(v), in vertex order."""
    n = graph.num_vertices
    rows = [[0] * n for _ in range(n)]
    for v in graph.vertices:
        rows[graph.index(p(v))][graph.index(v)] = 1
    return RationalMatrix(rows)


def bracket(graph, x, y):
    """Bracket of two coefficient vectors over the V+W basis: x_u y_v - x_v y_u on each wedge u^v."""
    n = graph.num_vertices
    out = [0] * (n + graph.num_edges)
    for k, (u, v) in enumerate(graph.edges):
        iu, iv = graph.index(u), graph.index(v)
        out[n + k] = x[iu] * y[iv] - x[iv] * y[iu]
    return tuple(out)


def wedge_index(graph, u, v):
    """(sign, index) of the wedge u^v in the W basis, or None for non-edges."""
    iu, iv = graph.index(u), graph.index(v)
    if not has_edge(graph, u, v):
        return None
    edge = (u, v) if iu < iv else (v, u)
    return (1 if iu < iv else -1, graph.edges.index(edge))


def extend_permutation(graph, p):
    """The extension of a vertex permutation to V + W as a signed permutation.

    Returns (sigma, signs): basis vector i goes to signs[i] times basis vector
    sigma[i]. A vertex v goes to p(v); the wedge a^b goes to p(a)^p(b), which
    is +-1 times an edge wedge. Raises PreconditionViolation when some image
    is a non-edge, i.e. when p is not a graph automorphism.
    """
    n = graph.num_vertices
    sigma = [graph.index(p(v)) for v in graph.vertices]
    signs = [1] * n
    for a, b in graph.edges:
        signed = wedge_index(graph, p(a), p(b))
        if signed is None:
            raise PreconditionViolation(
                f"{p.cycle_string()} sends the wedge {a}^{b} to the non-edge {p(a)}^{p(b)}"
            )
        sign, idx = signed
        sigma.append(n + idx)
        signs.append(sign)
    return tuple(sigma), tuple(signs)


def commutes_with_signed_perm(rows, perm, signs):
    """Whether rows commutes with the signed permutation e_i -> signs[i] * e_perm[i].

    That is rows[perm i][perm j] == signs[i] * signs[j] * rows[i][j] for all i, j.
    """
    n = len(perm)
    for i in range(n):
        row, image, s = rows[i], rows[perm[i]], signs[i]
        if any(image[perm[j]] != s * signs[j] * row[j] for j in range(n)):
            return False
    return True


class DictPermutation:
    """A vertex permutation kept as a label -> label dict; every product re-validates it."""

    def __init__(self, domain, mapping):
        domain = tuple(domain)
        mapping = dict(mapping)
        if set(mapping) != set(domain) or set(mapping.values()) != set(domain):
            raise ValueError("mapping is not a bijection on the domain")
        self.domain = domain
        self.map = mapping
        self.key = tuple(mapping[v] for v in domain)

    @classmethod
    def identity(cls, domain):
        return cls(domain, {v: v for v in domain})

    def __call__(self, v):
        return self.map[v]

    def __mul__(self, other):
        if self.domain != other.domain:
            raise ValueError("permutations have different domains")
        return DictPermutation(self.domain, {v: self.map[other.map[v]] for v in self.domain})

    @property
    def is_identity(self):
        return all(v == w for v, w in self.map.items())

    def cycles(self):
        """Follow labels; rotate each cycle to its earliest domain element."""
        position = {v: i for i, v in enumerate(self.domain)}
        seen, out = set(), []
        for v in self.domain:
            if v in seen:
                continue
            cycle = [v]
            seen.add(v)
            w = self.map[v]
            while w != v:
                cycle.append(w)
                seen.add(w)
                w = self.map[w]
            if len(cycle) > 1:
                start = min(range(len(cycle)), key=lambda i: position[cycle[i]])
                out.append(tuple(cycle[start:] + cycle[:start]))
        return tuple(out)

    def cycle_string(self):
        cycles = self.cycles()
        return "".join("(" + " ".join(c) + ")" for c in cycles) if cycles else "()"

    def order(self):
        return lcm(1, *(len(c) for c in self.cycles()))

    def __eq__(self, other):
        return isinstance(other, DictPermutation) and self.domain == other.domain and self.key == other.key

    def __hash__(self):
        return hash((self.domain, self.key))

    def __lt__(self, other):
        return self.key < other.key


def generated_group(generators, domain, order_bound):
    """Every element of the group the generators generate on domain, in canonical order.

    The canonical order compares the image labels of the domain elements,
    in domain order: labels, not positions. The closure composes bare
    position tuples, then sorts and wraps the distinct ones. Raises
    BoundExceeded as soon as more than order_bound are found, the identity
    included, so an order_bound below 1 admits no group.
    """
    identity = VertexPermutation.identity(domain)
    gens = []
    for g in generators:
        if g.domain != identity.domain:
            raise PermutationError("permutations have different domains")
        gens.append(g.positions.__getitem__)
    if order_bound < 1:
        raise BoundExceeded(f"holonomy group order exceeds the bound {order_bound}")
    elements = {identity.positions}
    frontier = [identity.positions]
    while frontier:
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
    label = identity.domain.__getitem__
    ordered = sorted(elements, key=lambda images: tuple(map(label, images)))
    return tuple(map(identity.with_positions, ordered))


def dict_close_group(generators, domain):
    """Breadth-first closure of DictPermutations, sorted by image labels."""
    identity = DictPermutation.identity(domain)
    elements, frontier = {identity}, [identity]
    while frontier:
        new_frontier = []
        for g in generators:
            for h in frontier:
                prod = g * h
                if prod not in elements:
                    elements.add(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return tuple(sorted(elements))


def dict_component_permutation(part, p):
    """Component i goes to the component equal to p's image of it, found by frozenset lookup."""
    lookup = {frozenset(c): i for i, c in enumerate(part.components)}
    return tuple(lookup[frozenset(map(p, c))] for c in part.components)


def dict_action_json(part, generators):
    """`HolonomyAction.to_json_dict()` as the dict-based closure and scans computed it."""
    elements = dict_close_group(generators, part.graph.vertices)
    action = {h: dict_component_permutation(part, h) for h in elements}

    def cyclic_generator(group):
        return next((h for h in group if h.order() == len(group)), None)

    orbits, seen = [], set()
    for start in range(part.num_components):
        if start in seen:
            continue
        members = sorted({action[h][start] for h in elements})
        seen.update(members)
        stab = [h for h in elements if action[h][start] == start]
        generator = cyclic_generator(stab)
        spans = any(part.loops[i] for i in members) or any(
            i in members and j in members for i, j in part.quotient_edges
        )
        orbits.append(
            {
                "rep": start + 1,
                "members": [i + 1 for i in members],
                "c": 2 if spans else 1,
                "stabilizer_order": len(stab),
                "stabilizer_cyclic": generator is not None,
                "stabilizer_generator": generator.cycle_string() if generator else None,
            }
        )
    return {
        "generators": [g.cycle_string() for g in generators],
        "order": len(elements),
        "cyclic": cyclic_generator(elements) is not None,
        "orbits": orbits,
    }
