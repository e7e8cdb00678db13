"""Building an explicit certified witness on the full algebra.

For a passing instance the constructor picks a certified integer seed per
orbit, powers seeds so magnitudes across orbits cannot collide, copies blocks
along each orbit by conjugating with holonomy elements, extends to the wedge
part, and then re-proves everything exactly on the assembled integer matrix;
its characteristic polynomial comes from the per-component blocks.
"""

from anosovgraph import (
    WitnessRefused,
    analyze,
    build_action,
    build_witness,
    coherent_components,
    complete_bipartite,
    discrete_graph,
    family_I,
)
from anosovgraph.fixtures import four_pair_chain, four_pair_chain_swap
from anosovgraph.graphs import VertexPermutation

# The 2-torus: a discrete pair, no wedge part, and the witness is the
# classical hyperbolic matrix itself.
g = discrete_graph(2)
action = build_action(g, coherent_components(g), [])
w = build_witness(action)
print("2-torus witness:", w.full_matrix, "->", w.v_char_poly)
print()

# Complete bipartite 3+3 with the part swap: one orbit of two 3-dimensional
# components, c = 2. The 15x15 witness uses the cubic seed on one side and
# its conjugate on the other.
g = complete_bipartite(3, 3)
swap = VertexPermutation.from_cycles("(a1 b1)(a2 b2)(a3 b3)", g.vertices)
action = build_action(g, coherent_components(g), [swap])
w = build_witness(action)
print(w.to_text())
print()

# A chain instance with two orbits: the exponent on the second orbit grows
# until cross-orbit eigenvalue products provably avoid the circle.
inst = family_I(2, (2, 3))
action = build_action(inst.graph, coherent_components(inst.graph), inst.generators)
w = build_witness(action)
size = len(w.full_matrix)  # integer rows on V+W
print(f"chain family m=2: witness is {size}x{size}")
print("block exponents:", [p.exponent for p in w.plan])
print("constant term of the full char poly:", w.full_char_poly.constant)
print()

# Failing instances refuse instead of producing something uncertified.
report = analyze(four_pair_chain(), [four_pair_chain_swap()])
print("four-pair chain decides:", report.decision.verdict)
action = build_action(
    four_pair_chain(), coherent_components(four_pair_chain()), [four_pair_chain_swap()]
)
try:
    build_witness(action)
except WitnessRefused as exc:
    print("witness construction refused:", exc)
