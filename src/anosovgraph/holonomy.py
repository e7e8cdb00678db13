"""Holonomy subgroups of graph automorphisms acting on coherent components.

The group is generated by explicit graph automorphisms and acts on the
coherent components through the induced index permutations. Each orbit
carries a representative, its stabilizer (with a cyclic generator when one
exists, and that generator's action on the representative component), a
conjugator carrying the representative to each other member, and the
constant c recording whether the orbit spans any quotient-graph edge or loop.
The decision layer reads the stabilizer's action from the orbit, and the
witness reads it and the conjugators; each is computed once per orbit.

`build_action` enumerates no group. The group is held as a stabilizer chain
(a base and strong generating set, built by the Schreier-Sims algorithm;
Sims 1970, Seress 2003) on vertex position tuples. Its base is the domain
positions in increasing order, and a level is kept only where its basic
orbit has more than one point, so the base and the basic orbits depend on
the group alone, not on its generators. The group's order is the product of
the basic orbit lengths, and the order bound is checked on the partial
products while the chain grows. The orbits of components come from the
generators' component permutations, each member with a transversal element;
a representative's stabilizer has its own chain, built from the Schreier
generators of that orbit. The canonical order compares the image labels of
the domain elements, in domain order. The first element of a coset in it
comes from a descent through the stabilizer's chain, and a cyclic
stabilizer's first element of full order from a walk of the chain in that
order; see `_first_in_coset` and `_first_generator`. Labels enter only those
two, the reported cycle strings and the once-per-orbit restriction of the
stabilizer generator to the representative's members.
`HolonomyAction.elements` lists the group in canonical order from a chain
built when it is first read; nothing in the package reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, compress, islice
from math import lcm, prod
from operator import ne

from .errors import BoundExceeded, NotAnAutomorphism, checkpoint
from .graphs import (
    CoherentPartition,
    Graph,
    VertexPermutation,
    index_cycles,
    induced_component_permutation,
    is_graph_automorphism,
)

DEFAULT_GROUP_ORDER_BOUND = 10_000


@dataclass(frozen=True)
class StabilizerInfo:
    """Stabilizer of an orbit representative inside the holonomy group.

    ``restriction`` is the generator's permutation of the representative
    component's members, as positions within that component: the identity
    for a trivial stabilizer, None when the stabilizer is not cyclic.
    """

    order: int
    generator: VertexPermutation | None
    restriction: tuple[int, ...] | None

    @property
    def cyclic(self) -> bool:
        return self.generator is not None


@dataclass(frozen=True)
class OrbitData:
    """One orbit of components.

    ``rep`` is the smallest member. ``conjugators`` pairs each other member,
    in increasing order, with the first group element, in canonical order,
    that carries ``rep`` to it; ``members`` is read off them.
    """

    rep: int
    c: int
    stabilizer: StabilizerInfo
    conjugators: tuple[tuple[int, VertexPermutation], ...]

    @property
    def members(self) -> tuple[int, ...]:
        return (self.rep,) + tuple(m for m, _ in self.conjugators)


@dataclass(frozen=True)
class HolonomyAction:
    """A finite permutation holonomy group together with its component action."""

    partition: CoherentPartition
    generators: tuple[VertexPermutation, ...]
    order: int
    orbits: tuple[OrbitData, ...]
    is_cyclic: bool

    @property
    def graph(self) -> Graph:
        return self.partition.graph

    @property
    def elements(self) -> GroupElements:
        """The group's elements in canonical order; see `GroupElements`."""
        return GroupElements(self)

    def to_json_dict(self) -> dict:
        """The JSON payload; each distinct stabilizer generator's cycle string is taken once."""
        cycle_strings = {g: g.cycle_string() for g in {o.stabilizer.generator for o in self.orbits} if g}
        return {
            "generators": [g.cycle_string() for g in self.generators],
            "order": self.order,
            "cyclic": self.is_cyclic,
            "orbits": [
                {
                    "rep": o.rep + 1,
                    "members": [i + 1 for i in o.members],
                    "c": o.c,
                    "stabilizer_order": o.stabilizer.order,
                    "stabilizer_cyclic": o.stabilizer.cyclic,
                    "stabilizer_generator": cycle_strings.get(o.stabilizer.generator),
                }
                for o in self.orbits
            ],
        }


# ---------------------------------------------------------------------------
# Stabilizer chains on position tuples: p[i] is the position of the image of
# position i, and _compose(p, q) is p after q.


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _first_moved(p: tuple[int, ...], start: int) -> int | None:
    """The smallest position from start on that p moves, or None."""
    return next(compress(range(start, len(p)), map(ne, islice(p, start, None), range(start, len(p)))), None)


class _Level:
    """One level of a stabilizer chain.

    ``transversal`` maps each point p of the basic orbit of ``point`` to an
    element u_p of the level's group with u_p(point) = p, the point itself
    to the identity; ``gens`` generate the level's group. ``tested`` holds
    the (point, generator index) pairs whose Schreier generators need no
    sift: those already sifted, and those that defined a transversal
    element, whose Schreier generators are the identity.
    """

    __slots__ = ("point", "gens", "transversal", "tested", "_inverses")

    def __init__(self, point: int, gens: list, identity: tuple[int, ...]):
        self.point = point
        self.gens = gens
        self.transversal = {point: identity}
        # the next level's generators, which fix the point: their Schreier
        # generators there are themselves, which that level's group holds
        self.tested = {(point, i) for i in range(len(gens))}
        self._inverses = {}

    def inverse(self, p: int) -> tuple[int, ...] | None:
        """u_p^-1, or None when p is not in the basic orbit."""
        inv = self._inverses.get(p)
        if inv is None and p in self.transversal:
            inv = self._inverses[p] = _inverse(self.transversal[p])
        return inv

    def add(self, g: tuple[int, ...]) -> None:
        """Add a generator, and close the basic orbit under all generators."""
        self.gens.append(g)
        u, tested, gens = self.transversal, self.tested, self.gens
        new = []
        last = len(gens) - 1
        for p in list(u):
            q = g[p]
            if q not in u:
                u[q] = _compose(g, u[p])
                tested.add((p, last))
                new.append(q)
        for p in new:  # grows while it is read
            for i, s in enumerate(gens):
                q = s[p]
                if q not in u:
                    u[q] = _compose(s, u[p])
                    tested.add((p, i))
                    new.append(q)


def _sift(levels: list[_Level], points: list[int], h: tuple[int, ...], start: int):
    """Strip h through levels[start:], whose group h fixes the earlier base points of.

    Returns None when h strips to the identity, else (residue, m): the
    residue fixes every position below m, its first moved point, and m is no
    base point or the residue's image of it lies outside m's basic orbit.
    """
    pos = points[start - 1] + 1 if start else 0
    while (m := _first_moved(h, pos)) is not None:
        k = bisect_left(points, m)
        if k == len(points) or points[k] != m:
            return h, m
        inv = levels[k].inverse(h[m])
        if inv is None:
            return h, m
        h = _compose(inv, h)
        pos = m + 1
    return None


def _stabilizer_chain(gens, n: int, order_bound: int | None = None) -> list[_Level]:
    """The levels of the stabilizer chain of the group the position tuples generate.

    The deterministic Schreier-Sims algorithm (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 4.4.2), with every position a
    potential base point. A level whose basic orbit is one point has the
    next level's generators, which fix that point, so its Schreier generators
    are those generators themselves; it is kept only once a residue moves
    its point first. The levels are processed from the deepest up, and a
    residue that does not strip to the identity is added at every level from
    the one below its source to the one of its first moved point, where the
    work resumes. Every partial orbit lies in the true basic orbit of its
    point, so each partial product of orbit lengths is a lower bound on the
    group's order: BoundExceeded is raised as soon as one exceeds order_bound.
    Polls `checkpoint` once per element sifted.
    """
    identity = tuple(range(n))
    levels: list[_Level] = []
    points: list[int] = []

    def add_residue(h, m, source: int) -> int:
        k = bisect_left(points, m)
        if k == len(points) or points[k] != m:
            levels.insert(k, _Level(m, list(levels[k].gens) if k < len(levels) else [], identity))
            points.insert(k, m)
        for level in levels[source + 1 : k + 1]:
            level.add(h)
        if order_bound is not None and prod(len(level.transversal) for level in levels) > order_bound:
            raise BoundExceeded(f"holonomy group order exceeds the bound {order_bound}")
        return k

    for g in gens:
        checkpoint()
        stripped = _sift(levels, points, g, 0)
        if stripped is not None:
            add_residue(*stripped, -1)
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        resume = None
        for p, u_p in list(level.transversal.items()):
            for j, s in enumerate(level.gens):
                if (p, j) in level.tested:
                    continue
                level.tested.add((p, j))
                checkpoint()
                stripped = _sift(levels, points, _compose(level.inverse(s[p]), _compose(s, u_p)), i + 1)
                if stripped is not None:
                    resume = add_residue(*stripped, i)
                    break
            if resume is not None:
                break
        i = i - 1 if resume is None else resume
    return levels


def _chain_order(levels: list[_Level]) -> int:
    return prod(len(level.transversal) for level in levels)


def _first_in_coset(t: tuple[int, ...], levels: list[_Level], rank: list[int]) -> tuple[int, ...]:
    """The first element of the coset t H in canonical order, H the group of the chain.

    rank[i] is the rank of position i's label. Let H_k be the group of
    levels[k:], which fixes every position below levels[k]'s point b: a
    position between two base points is fixed by the stabilizer of the
    positions before it, else it would be a base point with a longer orbit.
    So every element of t H_k has the images of t below b, and at b the image
    t(p), p in the basic orbit of b. The least rank of t(p) picks p, and the
    elements of t H_k with that image at b form t u_p H_(k+1). Each step thus
    keeps exactly the elements with the least prefix so far, without
    backtracking, and after the last level one element is left.
    """
    for level in levels:
        p = min(level.transversal, key=lambda p: rank[t[p]])
        t = _compose(t, level.transversal[p])
    return t


def _walk_cosets(
    levels: list[_Level], rank: list[int], keep, t: tuple[int, ...], k: int = 0, size: int | None = None
):
    """The elements of the coset t H_k in canonical order, lazily, skipping the cosets keep refuses.

    H_k is the group of levels[k:], of order size (worked out when None),
    and t the identity for the whole chain's group. A depth-first walk of
    the cosets (see `_first_in_coset`), the children of each taken by the
    rank of t(p), yields the elements in canonical order. keep(t, |H_k|) is
    asked on entering each coset t H_k, and a refused coset is skipped
    whole. Polls `checkpoint` once per coset it enters. A module function,
    not a closure: a closure that calls itself holds a reference cycle,
    which would keep the chain alive until the cyclic garbage collector runs.
    """
    if size is None:
        size = _chain_order(levels[k:])
    checkpoint()
    if not keep(t, size):
        return
    if k == len(levels):
        yield t
        return
    u = levels[k].transversal
    size //= len(u)
    for p in sorted(u, key=lambda p: rank[t[p]]):
        yield from _walk_cosets(levels, rank, keep, _compose(t, u[p]), k + 1, size)


def _first_generator(levels: list[_Level], identity, rank: list[int], order_of) -> tuple[int, ...]:
    """The first element in canonical order of a cyclic chain group H whose order is |H|.

    A coset t H_k lies in the subgroup generated by t and H_k, which in a
    cyclic group has order lcm(order(t), |H_k|). When that is below |H|, no
    element of the coset generates H, so the walk skips it; at a single
    element the same test asks for order |H|.
    """
    target = _chain_order(levels)
    return next(_walk_cosets(levels, rank, lambda t, size: lcm(order_of(t), size) == target, identity))


def _is_cyclic(gens, order: int, order_of) -> bool:
    """Whether the group of the given order that gens generate is cyclic.

    A cyclic group is abelian. An abelian group's exponent is the lcm of
    its generators' orders, and it is cyclic exactly when that is its order.
    """
    if any(_compose(g, h) != _compose(h, g) for g, h in combinations(gens, 2)):
        return False
    return lcm(1, *map(order_of, gens)) == order


def _label_ranks(domain) -> list[int]:
    """The rank of each position's label among the labels: the canonical order on positions."""
    rank = [0] * len(domain)
    for r, i in enumerate(sorted(range(len(domain)), key=domain.__getitem__)):
        rank[i] = r
    return rank


def _every_coset(t, size) -> bool:
    return True


class GroupElements(Sequence):
    """The elements of a holonomy group in canonical order, listed only when read.

    The length is the group's order and lists nothing. The first element
    read builds the group's stabilizer chain; iteration walks it in
    canonical order (`_walk_cosets`), and an index descends it, taking the
    child at each level by the quotient of the index by the size of the
    cosets below. Nothing in the package reads the elements.
    """

    __slots__ = ("_action", "_chain", "_rank")

    def __init__(self, action: HolonomyAction):
        self._action = action
        self._chain = None

    def __len__(self) -> int:
        return self._action.order

    def _levels(self) -> list[_Level]:
        if self._chain is None:
            vertices = self._action.graph.vertices
            self._chain = _stabilizer_chain([g.positions for g in self._action.generators], len(vertices))
            self._rank = _label_ranks(vertices)
        return self._chain

    def __iter__(self):
        identity = VertexPermutation.identity(self._action.graph.vertices)
        for t in _walk_cosets(self._levels(), self._rank, _every_coset, identity.positions):
            yield identity.with_positions(t)

    def __getitem__(self, index):
        index = range(len(self))[index]  # a tuple's negative indices, slices and IndexError
        if isinstance(index, range):
            return tuple(map(self.__getitem__, index))
        identity = VertexPermutation.identity(self._action.graph.vertices)
        levels = self._levels()
        t, size, rank = identity.positions, len(self), self._rank
        for level in levels:
            u = level.transversal
            size //= len(u)
            child, index = divmod(index, size)
            t = _compose(t, u[sorted(u, key=lambda p: rank[t[p]])[child]])
        return identity.with_positions(t)


def _restriction(part: CoherentPartition, p: tuple[int, ...], rep: int) -> tuple[int, ...]:
    """p on component rep, which it stabilizes, as positions within the component."""
    members = part.member_positions[rep]
    local = {r: i for i, r in enumerate(members)}
    return tuple(map(local.__getitem__, map(p.__getitem__, members)))


def build_action(
    part: CoherentPartition,
    generators,
    order_bound: int = DEFAULT_GROUP_ORDER_BOUND,
) -> HolonomyAction:
    """Act on components by the generated group, and collect orbit data.

    The graph is `part.graph`, the one the partition belongs to. Each
    generator is checked to be an automorphism that permutes the components,
    a generator given on a reordered domain is re-indexed onto
    `graph.vertices`, and then an order_bound below 1 admits no group. The
    group's stabilizer chain gives its order (BoundExceeded when above
    order_bound). Orbits are found by a search over the generators' component
    permutations from the smallest unvisited component, which is the
    representative; each member j gets a transversal element t_j carrying the
    representative to it. The representative's stabilizer H has order
    |G| / |orbit|. It is G for a one-member orbit; it is trivial when the
    orbit has |G| members, and then t_j is the only conjugator to j;
    otherwise its chain comes from the orbit's Schreier generators. Each
    conjugator is the first element of t_j H in canonical order. A cyclic
    group is abelian, so generators that do not commute make it non-cyclic
    without any element's order; a cyclic stabilizer's generator is the
    first element of full order (`_first_generator`), and every element's
    order is taken at most once. A stabilizer with no single generator is
    flagged non-cyclic, and downstream verdicts come out undecided instead of
    guessed. One sweep of the loops and quotient edges gives every orbit's c.
    """
    graph = part.graph
    checked, component_perms = [], []
    for g in generators:
        if not is_graph_automorphism(graph, g):
            raise NotAnAutomorphism(f"{g.cycle_string()} is not an automorphism of the graph")
        if g.domain != graph.vertices:
            g = VertexPermutation(graph.vertices, {v: g(v) for v in graph.vertices})
        component_perms.append(induced_component_permutation(part, g))
        checked.append(g)
    if order_bound < 1:
        raise BoundExceeded(f"holonomy group order exceeds the bound {order_bound}")
    generators = tuple(checked)
    identity = VertexPermutation.identity(graph.vertices)
    ident = identity.positions
    n = graph.num_vertices
    gens = [g.positions for g in generators]
    chain = _stabilizer_chain(gens, n, order_bound)
    order = _chain_order(chain)
    rank = _label_ranks(graph.vertices)
    orders = {}

    def order_of(t):
        if t not in orders:
            orders[t] = lcm(1, *map(len, index_cycles(t)))
        return orders[t]

    def first_generator(levels):
        """The first element of full order of a cyclic chain group, as a permutation."""
        if not levels:
            return identity
        return identity.with_positions(_first_generator(levels, ident, rank, order_of))

    group_cyclic = _is_cyclic(gens, order, order_of)
    group_generator = None  # found when a one-member orbit first needs it

    orbit_of = {}
    found = []
    for start in range(part.num_components):
        if start in orbit_of:
            continue
        transversal = {start: ident}
        queue = [start]
        closing = []  # (member, generator index, image member) off the search tree
        for j in queue:  # grows while it is read
            t = transversal[j]
            for index, (g, perm) in enumerate(zip(gens, component_perms)):
                k = perm[j]
                if k not in transversal:
                    transversal[k] = _compose(g, t)
                    queue.append(k)
                else:
                    closing.append((j, index, k))
        orbit_of.update(dict.fromkeys(transversal, start))
        found.append((start, transversal, closing))
    spanning = {orbit_of[i] for i, loop in enumerate(part.loops) if loop}
    spanning.update(orbit_of[i] for i, j in part.quotient_edges if orbit_of[i] == orbit_of[j])

    orbits = []
    for start, transversal, closing in found:
        members = sorted(transversal)[1:] if len(transversal) > 1 else ()
        if len(transversal) == 1:
            if group_cyclic and group_generator is None:
                group_generator = first_generator(chain)
            stab_order, generator, conjugators = order, group_generator, ()
        elif len(transversal) == order:
            stab_order, generator = 1, identity
            conjugators = tuple((j, identity.with_positions(transversal[j])) for j in members)
        else:
            # Schreier generators t_k^-1 g t_j of the closing edges generate the stabilizer
            inverses = {}
            stab_gens = []
            for j, index, k in closing:
                if k not in inverses:
                    inverses[k] = _inverse(transversal[k])
                h = _compose(inverses[k], _compose(gens[index], transversal[j]))
                if h != ident:
                    stab_gens.append(h)
            stab = _stabilizer_chain(stab_gens, n)
            stab_order = _chain_order(stab)
            # the first level's generators are the residues of stab_gens, which generate H
            generator = first_generator(stab) if _is_cyclic(stab[0].gens, stab_order, order_of) else None
            conjugators = tuple(
                (j, identity.with_positions(_first_in_coset(transversal[j], stab, rank))) for j in members
            )
        if stab_order * len(transversal) != order:
            raise AssertionError("orbit-stabilizer identity failed")
        orbits.append(OrbitData(
            rep=start,
            c=2 if start in spanning else 1,
            stabilizer=StabilizerInfo(
                order=stab_order,
                generator=generator,
                restriction=None if generator is None else _restriction(part, generator.positions, start),
            ),
            conjugators=conjugators,
        ))

    return HolonomyAction(
        partition=part,
        generators=generators,
        order=order,
        orbits=tuple(orbits),
        is_cyclic=group_cyclic,
    )
