"""Exact hyperbolicity certification: Sturm chains instead of floating point.

The unit-circle test is a three-stage exact decision: evaluate at +-1, take
the gcd with the reversed polynomial, then push the palindromic gcd through
the x + 1/x substitution and count real roots in (-2, 2) by Sturm chains.
Level-2 certificates repeat the test on the exterior-square characteristic
polynomial, whose roots are the pairwise eigenvalue products.
"""

from anosovgraph import (
    char_poly,
    exterior_square_char_poly,
    is_integer_like,
    parse_polynomial,
)
from anosovgraph.hyperbolicity import certify_polynomial, unit_circle_analysis
from anosovgraph.polynomials import companion_rows, cyclotomic

CAT_MAP = ((2, 1), (1, 1))

print("characteristic polynomial of the classical torus map:", char_poly(CAT_MAP))

for text in ["x^2 + x + 1", "x^2 - 1", "x^2 - 3x + 1", "x^3 - x^2 - 2x + 1"]:
    p = parse_polynomial(text)
    analysis = unit_circle_analysis(p)
    print(f"{text:22s} unit-circle root: {str(analysis.exists):5s} ({analysis.detail})")

phi5 = cyclotomic(5)
print(f"{str(phi5):22s} unit-circle root: {unit_circle_analysis(phi5).exists}")
print()

# Level 1 vs level 2 on the torus map: the determinant is 1, so the product
# of the two eigenvalues sits exactly on the circle and level 2 must fail.
cert1 = certify_polynomial(char_poly(CAT_MAP), 1)
cert2 = certify_polynomial(char_poly(CAT_MAP), 2)
print("torus map, level 1:", "valid" if cert1.valid else cert1.failure)
print("torus map, level 2:", "valid" if cert2.valid else cert2.failure)
print()

# A cubic unit whose pairwise products also avoid the circle: the workhorse
# seed for 3-dimensional components with c = 2.
cubic = parse_polynomial("x^3 - x^2 - 2x + 1")
rows = companion_rows(cubic)
print("cubic seed:", cubic, "| integer-like:", is_integer_like(cubic))
print("exterior square char poly:", exterior_square_char_poly(rows))
cert = certify_polynomial(char_poly(rows), 2)
print("level 2 certificate valid:", cert.valid)
print("stages:", [(s.label, s.analysis.detail) for s in cert.stages])
