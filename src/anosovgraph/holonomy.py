"""Holonomy subgroups of graph automorphisms acting on coherent components.

The group is generated by explicit graph automorphisms, closed by
multiplication up to a configurable order bound in the canonical order of
`VertexPermutation.generated_group`, and acts on the coherent components
through the induced index permutations. Each orbit carries a
representative, its stabilizer (with a cyclic generator when one exists, and
that generator's action on the representative component), a conjugator
carrying the representative to each other member, and the constant c
recording whether the orbit spans any quotient-graph edge or loop. The
decision layer reads the stabilizer's action from the orbit, and the witness
reads it and the conjugators; each is computed once per orbit.

The closure composes and sorts vertex position tuples. The action is then
built in linear passes. Only the generators have their component permutations
computed, which also checks that each maps components onto components; their
products then do too, so an element carries a representative to the
component of its first vertex's image, one label lookup per element and
orbit. One sweep of the loops and quotient edges gives every orbit's c. A
cyclic group is abelian, so generators that do not commute settle
`is_cyclic` without any element's order; a stabilizer as large as the group
reuses the group's answer, and the other cyclicity scans stop at the first
element of full order, taking each element's order at most once. Labels
enter only the closure's sort, the reported cycle strings, the vertex
lookups and the once-per-orbit restriction of the stabilizer generator to
the representative's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import NotAnAutomorphism
from .graphs import (
    CoherentPartition,
    Graph,
    VertexPermutation,
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

    elements: tuple[VertexPermutation, ...]
    generator: VertexPermutation | None
    restriction: tuple[int, ...] | None

    @property
    def order(self) -> int:
        return len(self.elements)

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
    elements: tuple[VertexPermutation, ...]
    orbits: tuple[OrbitData, ...]
    is_cyclic: bool

    @property
    def graph(self) -> Graph:
        return self.partition.graph

    @property
    def order(self) -> int:
        return len(self.elements)

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


def _cyclic_generator(elements, order) -> VertexPermutation | None:
    """The first element whose order is the group's, or None when the group is not cyclic."""
    return next((h for h in elements if order(h) == len(elements)), None)


def _restriction(part: CoherentPartition, p: VertexPermutation, rep: int) -> tuple[int, ...]:
    """p on component rep, which it stabilizes, as positions within the component."""
    comp = part.components[rep]
    local = {v: i for i, v in enumerate(comp)}
    return tuple(local[p(v)] for v in comp)


def build_action(
    part: CoherentPartition,
    generators,
    order_bound: int = DEFAULT_GROUP_ORDER_BOUND,
) -> HolonomyAction:
    """Close the generators, act on components, and collect orbit data.

    The graph is `part.graph`, the one the partition belongs to. Every scan
    runs over `VertexPermutation.generated_group` in its canonical order, so
    each stabilizer generator and conjugator is the first fitting element. Each
    generator is checked to be an automorphism that permutes the components;
    products of such generators permute them too, so an element carries a
    component to the component of its first vertex's image, and one lookup
    per element and orbit gives the members, each one's conjugator and the
    stabilizer. Orbits are listed by smallest member index, which is also
    the chosen representative, and one sweep of the loops and quotient edges
    gives every orbit's c. A cyclic group is abelian, so two generators that
    do not commute make the group non-cyclic without taking any element's
    order; a stabilizer as large as the group reuses the group's answer, and
    the other scans stop at the first element of full order, taking each
    element's order at most once. A stabilizer with no single generator is
    flagged non-cyclic, and downstream verdicts come out undecided instead of
    guessed. A generator given on a reordered domain is re-indexed onto
    `graph.vertices`.
    """
    graph = part.graph
    checked = []
    for g in generators:
        if not is_graph_automorphism(graph, g):
            raise NotAnAutomorphism(f"{g.cycle_string()} is not an automorphism of the graph")
        if g.domain != graph.vertices:
            g = VertexPermutation(graph.vertices, {v: g(v) for v in graph.vertices})
        induced_component_permutation(part, g)
        checked.append(g)
    generators = tuple(checked)
    elements = VertexPermutation.generated_group(generators, graph.vertices, order_bound)
    order = cache(VertexPermutation.order)
    abelian = all(g * h == h * g for g, h in combinations(generators, 2))
    group_generator = _cyclic_generator(elements, order) if abelian else None

    component_of = {v: i for i, comp in enumerate(part.components) for v in comp}
    orbit_of = {}
    scans = []
    for start, comp in enumerate(part.components):
        if start in orbit_of:
            continue
        first, stab = {}, []
        for h in elements:
            j = component_of[h(comp[0])]
            if j == start:
                stab.append(h)
            elif j not in first:
                first[j] = h
        orbit_of.update(dict.fromkeys([start, *first], start))
        scans.append((start, tuple(sorted(first.items())), tuple(stab)))
    spanning = {orbit_of[i] for i, loop in enumerate(part.loops) if loop}
    spanning.update(orbit_of[i] for i, j in part.quotient_edges if orbit_of[i] == orbit_of[j])

    orbits = []
    for start, conjugators, stab in scans:
        generator = group_generator if len(stab) == len(elements) else _cyclic_generator(stab, order)
        orbits.append(OrbitData(
            rep=start,
            c=2 if start in spanning else 1,
            stabilizer=StabilizerInfo(
                elements=stab,
                generator=generator,
                restriction=None if generator is None else _restriction(part, generator, start),
            ),
            conjugators=conjugators,
        ))

    action_obj = HolonomyAction(
        partition=part,
        generators=generators,
        elements=elements,
        orbits=tuple(orbits),
        is_cyclic=group_generator is not None,
    )
    for orbit in action_obj.orbits:
        if orbit.stabilizer.order * len(orbit.members) != action_obj.order:
            raise AssertionError("orbit-stabilizer identity failed")
    return action_obj
