"""Exact certification that integer matrices keep eigenvalue products off the unit circle.

The unit-circle test is fully exact: evaluate at +-1, take the gcd with the
reversed polynomial, rewrite the (palindromic) gcd through the x + 1/x
substitution and count real roots in (-2, 2) with a Sturm chain. Once
p(+-1) != 0, the gcd g divides p, so g(+-1) != 0 too, and g is palindromic
of even degree, as the substitution needs. Level-2 certificates additionally
run the same test on the characteristic polynomial of the second exterior
power, whose roots are the pairwise eigenvalue products. Repeated-index
products are covered by the level-1 stage since |mu^2| = 1 exactly when
|mu| = 1.

Every characteristic polynomial here comes from power sums of its roots by
Newton's identities (`polynomials.from_power_sums`). For a matrix A the k-th
power sum of the eigenvalues is tr(A^k). For the exterior square of monic p,
with s_k the power sums of the roots of p, the pair products have power sums
S_k = (s_k^2 - s_2k) / 2. Each s_k, S_k and coefficient is a symmetric
polynomial with integer coefficients in the roots of a monic integer
polynomial, hence an integer, so the divisions by 2 and by k are exact; each
one is checked. The same identities give the products of the roots of two
polynomials (`tensor_poly`), whose power sums are s_k(p) s_k(q).

A polynomial known as a product of factors, like the witness's on V + W, is
certified through them (`certify_factors`), with the certificate that the
whole polynomial would get.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import mul

from .errors import checkpoint
from .polynomials import (
    IntPolynomial,
    count_real_roots_between,
    divide_exact,
    from_power_sums,
    palindromic_to_interval_poly,
    poly_gcd,
    power_sums,
)


def _int_rows(m) -> list[list[int]]:
    if not isinstance(m, Sequence) or not all(isinstance(row, Sequence) for row in m):
        raise ValueError("matrix must be a sequence of rows")
    rows = [[int(x) for x in row] for row in m]
    for row, raw in zip(rows, m):
        for a, b in zip(row, raw):
            if a != b:
                raise ValueError("matrix entries must be integers")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _pattern_blocks(a: list[list[int]]) -> list[list[int]]:
    """Connected components of the nonzero pattern; each is an invariant block."""
    n = len(a)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and (a[i][j] != 0 or a[j][i] != 0):
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(comp))
    return blocks


def _charpoly_dense(a: list[list[int]]) -> IntPolynomial:
    # tr(A^k) is the k-th power sum of the eigenvalues; Newton's identities do the rest.
    # Only A..A^m are formed, m = ceil(n/2); tr(A^(j+m)) = sum over r, c of A^j[r][c] A^m[c][r].
    n = len(a)
    m = (n + 1) // 2
    powers = [a]
    for _ in range(m - 1):
        checkpoint()
        powers.append(_matmul(powers[-1], a))
    traces = [n] + [sum(p[i][i] for i in range(n)) for p in powers]
    top = [x for col in zip(*powers[-1]) for x in col]  # A^m transposed, flattened
    for p in powers[: n - m]:
        checkpoint()
        traces.append(sum(map(mul, chain.from_iterable(p), top)))
    return from_power_sums(traces)


def char_poly(m) -> IntPolynomial:
    """Monic characteristic polynomial of a square integer matrix given as rows, exactly.

    Splits the matrix along the connected components of its nonzero pattern
    first, so block-diagonal inputs cost only the sum of their blocks. An n x n
    block takes the traces of A, A^2, ..., A^n as the power sums of its
    eigenvalues, and Newton's identities turn them into coefficients, each
    division by k checked. Only A, ..., A^m with m = ceil(n/2) are formed
    (m - 1 matrix products); each later trace tr(A^(j+m)) is the sum of the
    entrywise products of A^j and the transpose of A^m (n - m trace
    products). Polls `checkpoint` once per product of either kind and once per
    coefficient. Raises ValueError unless m is a non-empty square sequence
    of integer rows.
    """
    rows = _int_rows(m)
    if not rows:
        raise ValueError("matrix must be non-empty")
    result = IntPolynomial([1])
    for block in _pattern_blocks(rows):
        sub = [[rows[i][j] for j in block] for i in block]
        result = result * _charpoly_dense(sub)
    return result


def is_integer_like(p: IntPolynomial) -> bool:
    """True when the (monic) polynomial has constant term +1 or -1."""
    if not p.is_monic:
        raise ValueError("integer-likeness is defined for monic polynomials")
    return p.constant in (1, -1)


@dataclass(frozen=True)
class UnitCircleAnalysis:
    """Trace of the staged exact unit-circle test.

    The two endpoint flags, the degree of the reciprocal gcd and the Sturm
    count are the record; the rest is read from them. The stage is
    ``endpoints`` when a flag is set, else ``reciprocal-gcd`` when there is
    no Sturm count (the gcd was constant), else ``sturm``. A unit-circle
    root exists exactly when a flag is set or the Sturm count is positive.
    """

    root_at_one: bool
    root_at_minus_one: bool
    reciprocal_gcd_degree: int
    sturm_root_count: int | None

    @property
    def stage(self) -> str:
        if self.root_at_one or self.root_at_minus_one:
            return "endpoints"
        return "reciprocal-gcd" if self.sturm_root_count is None else "sturm"

    @property
    def exists(self) -> bool:
        return self.root_at_one or self.root_at_minus_one or bool(self.sturm_root_count)

    @property
    def detail(self) -> str:
        stage, count = self.stage, self.sturm_root_count
        if stage == "endpoints":
            ends = (("x=1", self.root_at_one), ("x=-1", self.root_at_minus_one))
            return "root at " + ", ".join(s for s, hit in ends if hit)
        if stage == "reciprocal-gcd":
            return "gcd with the reversed polynomial is constant"
        if count > 0:
            return f"substituted polynomial has {count} real root(s) in (-2, 2)"
        return "no real roots of the substituted polynomial in (-2, 2)"

    def to_json_dict(self) -> dict:
        return {
            "exists": self.exists,
            "stage": self.stage,
            "detail": self.detail,
            "root_at_one": self.root_at_one,
            "root_at_minus_one": self.root_at_minus_one,
            "reciprocal_gcd_degree": self.reciprocal_gcd_degree,
            "sturm_root_count": self.sturm_root_count,
        }


def unit_circle_analysis(p: IntPolynomial) -> UnitCircleAnalysis:
    if p.is_zero:
        raise ValueError("the zero polynomial has every root")
    at_one = p(1) == 0
    at_minus_one = p(-1) == 0
    checkpoint()
    return _unit_circle_stages(at_one, at_minus_one, poly_gcd(p, p.reverse()))


def _unit_circle_stages(at_one: bool, at_minus_one: bool, g: IntPolynomial) -> UnitCircleAnalysis:
    """The staged unit-circle test of P, given P(1) == 0, P(-1) == 0 and g = poly_gcd(P, P~).

    P~ is the reversal of P. A root of P on the unit circle is the inverse
    of its own conjugate, so it is a root of g; the endpoints are tested
    first, then a constant g clears P, and otherwise a Sturm chain counts
    the roots of g on the circle.

    `certify_factors` takes g from the factors of P = prod f^e instead of
    from P itself. Call a factor reciprocal when it equals its reversal up
    to sign: its roots, with their multiplicities, are closed under
    inversion. Let N be the product of the distinct other factors and
    D = gcd(N, N~). For each other factor f, strip gcd(r, D) from r = f
    until r is coprime to D, and let P_D be the product of the reciprocal
    f^e and of the stripped parts (f / r)^e. For a root alpha != 0, let c be
    its multiplicity in the product of the reciprocal f^e (that of 1/alpha
    too), and a and b those of alpha and 1/alpha in the product of the other
    f^e. Then alpha has multiplicity c + min(a, b) in gcd(P, P~). P_D keeps
    c for alpha and for 1/alpha, and it keeps a and b exactly when alpha is
    a root of D, that is when a > 0 and b > 0; otherwise min(a, b) = 0. So
    alpha has the same multiplicity in gcd(P_D, P_D~), the two gcds agree up
    to a unit, and `poly_gcd`, which returns the primitive gcd with positive
    leading coefficient, returns the same g for both. With no reciprocal
    factor and D = 1, P_D = 1 and g = 1; when P_D is reciprocal, g is the
    primitive part of P_D.
    """
    if at_one or at_minus_one or g.degree == 0:
        return UnitCircleAnalysis(at_one, at_minus_one, g.degree, None)
    checkpoint()
    count = count_real_roots_between(palindromic_to_interval_poly(g), -2, 2)
    return UnitCircleAnalysis(False, False, g.degree, count)


def exterior_square_poly(p: IntPolynomial) -> IntPolynomial:
    """Monic polynomial whose roots are the pair products lambda_i lambda_j (i < j) of monic p's roots.

    With s_k the k-th power sum of the roots of p, the N = C(n, 2) pair
    products have power sums S_k = (s_k^2 - s_2k) / 2, since s_k^2 counts
    each product (lambda_i lambda_j)^k twice for i != j and once more each
    lambda_i^2k. Newton's identities turn S_1..S_N back into coefficients.
    The roots are algebraic integers, so the S_k and the coefficients are
    integers and each division, by 2 and by k, is exact; a remainder raises
    AssertionError. Polls `checkpoint` once per k.
    """
    if not p.is_monic:
        raise ValueError("the exterior square is defined for monic polynomials")
    if p.degree < 2:
        raise ValueError("exterior square needs dimension at least 2")
    n = p.degree * (p.degree - 1) // 2
    s = power_sums(p, 2 * n)
    pair_sums = [n]
    for k in range(1, n + 1):
        half, odd = divmod(s[k] * s[k] - s[2 * k], 2)
        if odd:
            raise AssertionError("inexact division in exterior-square power sums")
        pair_sums.append(half)
    return from_power_sums(pair_sums)


def tensor_poly(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Monic polynomial whose roots are the products lambda_i mu_j of the roots of monic p and q.

    It is the characteristic polynomial of A (x) B for any A and B with
    characteristic polynomials p and q. The deg p * deg q products have power
    sums s_k(p) s_k(q), and Newton's identities turn those back into
    coefficients; each division is exact and checked. Polls `checkpoint` once
    per k in each of the three passes.
    """
    if not (p.is_monic and q.is_monic):
        raise ValueError("root products are defined for monic polynomials")
    n = p.degree * q.degree
    sums = zip(power_sums(p, n), power_sums(q, n))
    return from_power_sums([a * b for a, b in sums])


def exterior_square_char_poly(m) -> IntPolynomial:
    """Characteristic polynomial of the second exterior power (pairwise eigenvalue products).

    Equal to `exterior_square_poly` of the characteristic polynomial of m: the
    C(n, 2) x C(n, 2) compound matrix is never built.
    """
    return exterior_square_poly(char_poly(m))


@dataclass(frozen=True)
class CertificateStage:
    label: str
    poly: IntPolynomial
    analysis: UnitCircleAnalysis

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "poly": list(self.poly.coefficients),
            "analysis": self.analysis.to_json_dict(),
        }


_FAILURES = {"char_poly": "eigenvalue on unit circle", "exterior_square": "pair product on unit circle"}


@dataclass(frozen=True)
class HyperbolicityCertificate:
    """Exact record of a level-1 or level-2 hyperbolicity check.

    The stages are the record: the unit-circle test of the characteristic
    polynomial, then at level 2, only when that passes, the test of its
    exterior square. Everything else is read from them. Valid exactly when
    no stage found a unit-circle root (Sturm count 0 and no root at +-1);
    the failure names the first stage that found one.
    """

    level: int
    stages: tuple[CertificateStage, ...]

    @property
    def char_poly(self) -> IntPolynomial:
        return self.stages[0].poly

    @property
    def compound_char_poly(self) -> IntPolynomial | None:
        """The exterior-square polynomial, or None when no stage tested it."""
        return self.stages[1].poly if len(self.stages) > 1 else None

    @property
    def failure(self) -> str | None:
        return next((_FAILURES[s.label] for s in self.stages if s.analysis.exists), None)

    @property
    def valid(self) -> bool:
        return self.failure is None

    def to_json_dict(self) -> dict:
        first = self.stages[0].analysis
        compound = self.compound_char_poly
        return {
            "level": self.level,
            "char_poly": list(self.char_poly.coefficients),
            "reciprocal_gcd_degree": first.reciprocal_gcd_degree,
            "sturm_root_count": first.sturm_root_count,
            "compound_char_poly": list(compound.coefficients) if compound is not None else None,
            "stages": [s.to_json_dict() for s in self.stages],
            "valid": self.valid,
            "failure": self.failure,
        }


def certify_polynomial(p: IntPolynomial, level: int) -> HyperbolicityCertificate:
    """Exact certificate that no root of p, and at level 2 no product of two roots, has modulus one.

    Level 2 also builds and tests `exterior_square_poly` of p, only if p
    passes; when p fails, ``compound_char_poly`` is None.
    """
    if level not in (1, 2):
        raise ValueError("only levels 1 and 2 are supported")
    return _certificate(p, unit_circle_analysis(p), level)


def _certificate(p: IntPolynomial, first: UnitCircleAnalysis, level: int) -> HyperbolicityCertificate:
    stages = [CertificateStage("char_poly", p, first)]
    if level == 2 and not first.exists:
        compound = exterior_square_poly(p)
        stages.append(CertificateStage("exterior_square", compound, unit_circle_analysis(compound)))
    return HyperbolicityCertificate(level, tuple(stages))


def certify_factors(factors) -> HyperbolicityCertificate:
    """The level-1 certificate of P = prod f^e over the (factor f, multiplicity e) pairs.

    It equals `certify_polynomial(P, 1)` field by field, but the gcd of P
    with its reversal comes from the factors (see `_unit_circle_stages`):
    a factor equal to its reversal up to sign is kept whole, and the others
    are reduced through gcd(N, N~) of their product N, which is 1 in the
    common case, before any gcd at the degree of P is taken. P itself is
    built for the certificate's record. Raises ValueError on a zero factor
    or a multiplicity below 1.
    """
    factors = list(factors)
    if any(f.is_zero or e < 1 for f, e in factors):
        raise ValueError("factors must be nonzero with multiplicity at least 1")
    p = _power_product(factors)
    at_one = any(f(1) == 0 for f, _ in factors)
    at_minus_one = any(f(-1) == 0 for f, _ in factors)
    checkpoint()
    g = _factor_reciprocal_gcd(factors)
    return _certificate(p, _unit_circle_stages(at_one, at_minus_one, g), 1)


def _power_product(factors) -> IntPolynomial:
    """The product of f^e over the (f, e) pairs, each power packed (`IntPolynomial.__pow__`).

    Polls `checkpoint` once per factor.
    """
    out = IntPolynomial([1])
    for f, e in factors:
        checkpoint()
        out = out * f**e
    return out


def _is_reciprocal(f: IntPolynomial) -> bool:
    reverse = f.reverse()
    return reverse == f or reverse == -f


def _factor_reciprocal_gcd(factors) -> IntPolynomial:
    """poly_gcd(P, P~) for P = prod f^e, through D and P_D (see `_unit_circle_stages`)."""
    reciprocal, others = [], []
    for f, e in factors:
        (reciprocal if _is_reciprocal(f) else others).append((f, e))
    n = _power_product((f, 1) for f, _ in others)
    d = poly_gcd(n, n.reverse())
    parts = reciprocal
    if d.degree > 0:
        for f, e in others:
            part, rest = IntPolynomial([1]), f
            while (h := poly_gcd(rest, d)).degree > 0:
                part, rest = part * h, divide_exact(rest, h)
            parts.append((part, e))
    p_d = _power_product(parts)
    if _is_reciprocal(p_d):
        return p_d.primitive()
    return poly_gcd(p_d, p_d.reverse())
