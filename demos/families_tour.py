"""The parameterized families: chains with an order-2 swap, cycles with an
order-n rotation, and the all-complete order-4 variant.

Every instance decides yes with realizability guaranteed (cyclic holonomy
generated by a graph automorphism always occurs as an actual holonomy group).
"""

from anosovgraph import (
    GraphInputError,
    analyze,
    coherent_components,
    family_I,
    family_I_modified,
    family_II,
    family_II_z4,
    quotient_dot,
)

print("chain family, paired components swapped by an order-2 automorphism:")
for m in range(1, 7):
    sizes = (3,) if m == 1 else (2,) * (m - 1) + (3,)
    inst = family_I(m, sizes)
    report = analyze(inst.graph, inst.generators)
    print(f"  m={m}: dimension {inst.expected_dimension:3d} decision {report.decision.verdict}"
          f" ({report.decision.realizability})")
print()

print("modified chain (complete ends), dimension 12m + 19:")
for m in (3, 4, 5):
    inst = family_I_modified(m)
    print(f"  m={m}: dimension {inst.expected_dimension}")
print()

print("cycle family with rotation of order n, dimension 12n at size 3:")
for n in (3, 5, 6, 7):
    inst = family_II(n)
    report = analyze(inst.graph, inst.generators)
    print(f"  n={n}: dimension {inst.expected_dimension:3d} decision {report.decision.verdict}")
print()

print("a plain 4-cycle of components is impossible:")
try:
    family_II(4)
except GraphInputError as exc:
    print(" ", exc)
print()

inst = family_II_z4(3)
print(f"order-4 variant with complete components: dimension {inst.expected_dimension}")
print(quotient_dot(coherent_components(inst.graph)))
