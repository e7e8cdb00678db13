"""Support for the witness-guard acceptance criterion: instance generation."""

import itertools

from anosovgraph.families import family_I, family_II
from anosovgraph.graphs import Graph, VertexPermutation, complete_bipartite, cycle_graph
from anosovgraph.witness import OrbitSeedPlan


def _random_graph(rng, max_vertices=7):
    n = rng.randint(1, max_vertices)
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.4]
    return Graph(labels, edges)


def make_instances(rng, count):
    """Graph + automorphism-list instances mixing trivial and real symmetries."""
    instances = []
    while len(instances) < count:
        kind = rng.randrange(5)
        if kind == 0:
            instances.append((_random_graph(rng), []))
        elif kind == 1:
            n = rng.randint(3, 8)
            g = cycle_graph(n)
            shift = rng.randint(1, n - 1)
            labels = list(g.vertices)
            rot = VertexPermutation(
                g.vertices, {labels[i]: labels[(i + shift) % n] for i in range(n)}
            )
            instances.append((g, [rot]))
        elif kind == 2:
            a = rng.randint(1, 4)
            g = complete_bipartite(a, a)
            swap = VertexPermutation(
                g.vertices,
                {f"a{i}": f"b{i}" for i in range(1, a + 1)}
                | {f"b{i}": f"a{i}" for i in range(1, a + 1)},
            )
            instances.append((g, [swap]))
        elif kind == 3:
            # discrete graph with an arbitrary permutation (always an automorphism)
            n = rng.randint(1, 6)
            labels = [f"v{i}" for i in range(1, n + 1)]
            g = Graph(labels, [])
            perm = labels[:]
            rng.shuffle(perm)
            instances.append((g, [VertexPermutation(labels, dict(zip(labels, perm)))]))
        else:
            if rng.random() < 0.5:
                m = rng.randint(1, 2)
                sizes = (3,) if m == 1 else (rng.randint(2, 3), 3)
                inst = family_I(m, sizes)
            else:
                inst = family_II(rng.choice([3, 5, 6]), 3)
            instances.append((inst.graph, list(inst.generators)))
    return instances[:count]


def dummy_plan(action):
    """A syntactically complete plan; the guard must refuse before touching it."""
    plans = []
    for orbit in action.orbits:
        dim = len(action.partition.components[orbit.rep])
        seed = tuple(
            tuple(2 * int(i == j) - int(j == (i + 1) % dim) for j in range(dim))
            for i in range(dim)
        )
        conjugators = tuple(
            (
                member,
                next(h for h in action.elements if action.component_action[h][orbit.rep] == member),
            )
            for member in orbit.members
            if member != orbit.rep
        )
        plans.append(
            OrbitSeedPlan(
                orbit_rep=orbit.rep,
                seed=seed,
                exponent=1,
                certificate=None,
                conjugators=conjugators,
            )
        )
    return tuple(plans)
