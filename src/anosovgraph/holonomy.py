"""Holonomy subgroups of graph automorphisms acting on coherent components.

The group is generated by explicit graph automorphisms, closed by
multiplication up to a configurable order bound, and acts on the coherent
components through the induced index permutations. Each orbit carries a
representative, its stabilizer (with a cyclic generator when one exists, and
that generator's action on the representative component), and the constant c
recording whether the orbit spans any quotient-graph edge or loop. The
decision and witness layers read the stabilizer's action from the orbit; it
is computed once per orbit.

Everything here runs on vertex positions: products in the closure compose
position tuples, and each element's component permutation comes from the
partition's position table. Each element's component permutation and order
are computed once per `build_action` and shared by the orbit, stabilizer
and cyclicity scans. Labels enter only the canonical sort order of the
group, the reported cycle strings, and the once-per-orbit restriction of
the stabilizer generator to the representative's members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceeded, NotAnAutomorphism
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
    cyclic: bool
    generator: VertexPermutation | None
    restriction: tuple[int, ...] | None

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class OrbitData:
    rep: int
    members: tuple[int, ...]
    c: int
    stabilizer: StabilizerInfo


@dataclass(frozen=True)
class HolonomyAction:
    """A finite permutation holonomy group together with its component action."""

    graph: Graph
    partition: CoherentPartition
    generators: tuple[VertexPermutation, ...]
    elements: tuple[VertexPermutation, ...]
    component_action: dict
    orbits: tuple[OrbitData, ...]
    is_cyclic: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_json_dict(self) -> dict:
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
                    "stabilizer_generator": (
                        o.stabilizer.generator.cycle_string() if o.stabilizer.generator else None
                    ),
                }
                for o in self.orbits
            ],
        }


def close_group(
    generators, domain, order_bound: int = DEFAULT_GROUP_ORDER_BOUND
) -> tuple[VertexPermutation, ...]:
    """Multiplicative closure of the generators, in canonical sorted order.

    The order compares image labels (`VertexPermutation.image_labels`), not
    positions: the reported stabilizer generator and the witness's conjugators
    are the first fitting elements in it.
    """
    identity = VertexPermutation.identity(domain)
    elements = {identity}
    frontier = [identity]
    gens = list(generators)
    while frontier:
        new_frontier = []
        for g in gens:
            for h in frontier:
                prod = g * h
                if prod not in elements:
                    elements.add(prod)
                    new_frontier.append(prod)
                    if len(elements) > order_bound:
                        raise BoundExceeded(
                            f"holonomy group order exceeds the bound {order_bound}",
                            bound=order_bound,
                        )
        frontier = new_frontier
    return tuple(sorted(elements, key=VertexPermutation.image_labels))


def _orbit_c_value(part: CoherentPartition, members: tuple[int, ...]) -> int:
    member_set = set(members)
    if any(part.loops[i] for i in member_set):
        return 2
    for i, j in part.quotient_edges:
        if i in member_set and j in member_set:
            return 2
    return 1


def _cyclic_generator(elements, orders) -> VertexPermutation | None:
    """The first element whose order is the group's, or None when the group is not cyclic."""
    return next((h for h, n in zip(elements, orders) if n == len(elements)), None)


def _restriction(part: CoherentPartition, p: VertexPermutation, rep: int) -> tuple[int, ...]:
    """p on component rep, which it stabilizes, as positions within the component."""
    comp = part.components[rep]
    local = {v: i for i, v in enumerate(comp)}
    return tuple(local[p(v)] for v in comp)


def _stabilizer_info(part, elements, component_perms, orders, rep: int) -> StabilizerInfo:
    kept = [t for t, perm in enumerate(component_perms) if perm[rep] == rep]
    stab = tuple(elements[t] for t in kept)
    generator = _cyclic_generator(stab, [orders[t] for t in kept])
    return StabilizerInfo(
        elements=stab,
        cyclic=generator is not None,
        generator=generator,
        restriction=None if generator is None else _restriction(part, generator, rep),
    )


def build_action(
    graph: Graph,
    part: CoherentPartition,
    generators,
    order_bound: int = DEFAULT_GROUP_ORDER_BOUND,
) -> HolonomyAction:
    """Close the generators, act on components, and collect orbit data.

    Orbits are listed by smallest member index, which is also the chosen
    representative. The stabilizer of the representative is scanned for a
    single generator; when none exists it is flagged non-cyclic and downstream
    verdicts come out undecided instead of guessed. The whole group is
    scanned once the same way for `is_cyclic`. Each element's component
    permutation and order are computed once and shared by all the scans.
    """
    generators = tuple(generators)
    for g in generators:
        if not is_graph_automorphism(graph, g):
            raise NotAnAutomorphism(f"{g.cycle_string()} is not an automorphism of the graph")
    elements = close_group(generators, graph.vertices, order_bound)
    component_perms = [induced_component_permutation(part, h) for h in elements]
    orders = [h.order() for h in elements]

    k = part.num_components
    seen = set()
    orbits = []
    for start in range(k):
        if start in seen:
            continue
        members = sorted({perm[start] for perm in component_perms})
        seen.update(members)
        orbit = OrbitData(
            rep=start,
            members=tuple(members),
            c=_orbit_c_value(part, tuple(members)),
            stabilizer=_stabilizer_info(part, elements, component_perms, orders, start),
        )
        orbits.append(orbit)

    action_obj = HolonomyAction(
        graph=graph,
        partition=part,
        generators=generators,
        elements=elements,
        component_action=dict(zip(elements, component_perms)),
        orbits=tuple(orbits),
        is_cyclic=_cyclic_generator(elements, orders) is not None,
    )
    for orbit in action_obj.orbits:
        if orbit.stabilizer.order * len(orbit.members) != action_obj.order:
            raise AssertionError("orbit-stabilizer identity failed")
    return action_obj
