"""Coherent components and quotient graphs, on small worked examples.

Two vertices are equivalent when each one's open neighborhood sits inside the
other's closed neighborhood. The classes induce complete or discrete
subgraphs, cross-class adjacency is all-or-nothing, and the class graph
(loops at complete classes) is the quotient graph everything else runs on.
"""

from anosovgraph import coherent_components, cycle_graph, parse_graph, quotient_dot
from anosovgraph.fixtures import all_loops_chain, loop_end_chain, pentagon


def describe(name, graph):
    part = coherent_components(graph)
    print(f"== {name}: {graph.num_vertices} vertices, {graph.num_edges} edges")
    for i, comp in enumerate(part.components):
        loop = " +loop" if part.loops[i] else ""
        print(f"   lambda_{i + 1} = {{{', '.join(comp)}}} ({part.kinds[i]}{loop})")
    if part.order_pairs:
        rels = ", ".join(f"lambda_{i + 1} < lambda_{j + 1}" for i, j in sorted(part.order_pairs))
        print(f"   order: {rels}")
    print(quotient_dot(part))


# A 7-vertex chain: two discrete pairs feeding a triangle. Only the triangle
# is complete, so only it carries a loop; the a-pair sits below the triangle
# in the induced order because its open neighborhood lands inside the
# triangle's closed ones.
describe("chain with looped end", loop_end_chain())
g = loop_end_chain()
for a, b in (("a1", "b1"), ("b1", "a1")):
    print(f"N({a}) <= N[{b}]:", g.open_neighborhood(a) <= g.closed_neighborhood(b))
print()

# Making every class complete adds loops everywhere and changes the order.
describe("chain with all loops", all_loops_chain())

# On the 5-cycle no two distinct vertices are comparable, so every vertex is
# its own class and the quotient is the pentagon again.
describe("pentagon", pentagon())

# The 4-cycle splits into its two diagonals.
describe("4-cycle", cycle_graph(4))

# Text input form: vertices, a separator line, then edges.
text_graph = parse_graph("""
u v w
--
u v
v w
""")
describe("path from text input", text_graph)
