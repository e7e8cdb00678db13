import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosovgraph.errors import BoundExceeded, GraphInputError
from anosovgraph.polynomials import (
    IntPolynomial,
    companion_rows,
    count_real_roots_between,
    cyclotomic,
    divide_exact,
    format_polynomial,
    palindromic_to_interval_poly,
    parse_polynomial,
    poly_gcd,
    squarefree_part,
    sturm_chain,
)
from tests_support_oracles import (
    certify_whole_poly,
    oracle_tokens,
    palindromic_to_interval_poly_oracle,
    parse_polynomial_oracle,
)


def P(*ascending):
    return IntPolynomial(ascending)


def parse_outcome(parse, text):
    """The coefficients `parse` reads from text, or the type and message of what it raises."""
    try:
        return parse(text).coefficients
    except (GraphInputError, BoundExceeded) as exc:
        return type(exc), str(exc)


def outside_the_oracle(text):
    """True when text holds a `*` not between a coefficient and x, or an exponent
    int() cannot convert: the inputs the token-list oracle reads differently."""
    tokens, _ = oracle_tokens(text)
    kinds = [kind for kind, _ in tokens]
    for i, (kind, value) in enumerate(tokens):
        if kind == "mul" and (kinds[i - 1 : i] != ["num"] or kinds[i + 1 : i + 2] != ["x"]):
            return True
        if kind == "num" and kinds[i - 1 : i] == ["pow"] and len(value) > 4300:
            return True
    return False


class TestBasics:
    def test_normalization(self):
        assert P(1, 2, 0, 0).coefficients == (1, 2)
        assert P(0, 0).is_zero
        assert P(0).degree == -1

    def test_eval_exact(self):
        p = P(1, -2, 0, 1)  # x^3 - 2x + 1
        assert p(2) == 5
        assert p(Fraction(1, 2)) == Fraction(1, 8)

    def test_arith(self):
        a, b = P(1, 1), P(-1, 1)
        assert (a * b).coefficients == (-1, 0, 1)
        assert (a + b).coefficients == (0, 2)
        assert (a - b).coefficients == (2,)

    def test_reverse(self):
        p = P(1, -3, 1)
        assert p.reverse() == p  # palindromic
        q = P(2, 0, 1)
        assert q.reverse().coefficients == (1, 0, 2)
        # reversal is involutive once the constant term is nonzero
        assert q.reverse().reverse() == q
        r = P(0, 0, 1)  # x^2: double reversal loses the x-power only
        assert r.reverse().reverse() == P(1)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            IntPolynomial([Fraction(1, 2)])


def repeated_product(f, e):
    out = P(1)
    for _ in range(e):
        out = out * f
    return out


coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
polynomials = st.lists(coefficients, min_size=1, max_size=6).map(IntPolynomial)


class TestPower:
    """`__pow__` packs the polynomial into one integer; repeated schoolbook `*` is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(polynomials, st.integers(0, 12))
    def test_matches_repeated_product(self, f, e):
        assert f**e == repeated_product(f, e)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(IntPolynomial), st.integers(40, 64))
    def test_matches_repeated_product_at_high_powers(self, f, e):
        assert f**e == repeated_product(f, e)

    @pytest.mark.parametrize("e", [0, 1, 2, 3, 40, 41])
    @pytest.mark.parametrize(
        "f",
        [P(0), P(1), P(-1), P(0, 1), P(0, -1), P(-1, 1), P(1, -3, 1), P(2**64 + 1, -(2**70)), P(0, 0, 5)],
        ids=["zero", "one", "minus-one", "x", "minus-x", "x-1", "cat-map", "wide", "5x^2"],
    )
    def test_edge_cases(self, f, e):
        assert f**e == repeated_product(f, e)

    def test_zero_power_is_one(self):
        assert P(0) ** 0 == P(1)
        assert P(-7, 3) ** 0 == P(1)

    @pytest.mark.parametrize(
        "e, error",
        [(-1, ValueError), (-40, ValueError), (1.0, TypeError), (2.5, TypeError),
         (Fraction(2), TypeError), ("2", TypeError), (None, TypeError)],
    )
    def test_rejects_negative_or_non_int_exponent(self, e, error):
        with pytest.raises(error):
            P(1, 1) ** e


class TestGcd:
    def test_common_factor(self):
        a = P(-1, 0, 1)  # (x-1)(x+1)
        b = P(1, 2, 1)  # (x+1)^2
        assert poly_gcd(a, b).coefficients == (1, 1)

    def test_coprime(self):
        assert poly_gcd(P(1, 1), P(2, 1)).degree == 0

    def test_symmetric_in_arguments(self):
        p = P(1, -3, 1) * P(1, 1, 1)
        assert poly_gcd(p, p.reverse()) == poly_gcd(p.reverse(), p)

    def test_squarefree_part(self):
        p = P(1, 1) * P(1, 1) * P(-3, 1)
        assert squarefree_part(p) == (P(1, 1) * P(-3, 1)).primitive()

    def test_divide_exact_errors(self):
        with pytest.raises(ValueError):
            divide_exact(P(1, 0, 1), P(1, 1))


class TestSubstitution:
    def test_quadratic_cyclotomic(self):
        # x^2 + x + 1 -> q(y) = y + 1
        assert palindromic_to_interval_poly(P(1, 1, 1)).coefficients == (1, 1)

    def test_cat_map_poly(self):
        # x^2 - 3x + 1 -> q(y) = y - 3
        assert palindromic_to_interval_poly(P(1, -3, 1)).coefficients == (-3, 1)

    def test_phi5(self):
        q = palindromic_to_interval_poly(cyclotomic(5))
        assert q.coefficients == (-1, 1, 1)  # y^2 + y - 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)), max_size=12),
        st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)).filter(bool),
    )
    def test_matches_the_polynomial_recurrence(self, middle_up, lead):
        # coefficients c_s..c_2s with c_2s != 0, mirrored: palindromic of even degree 2s
        upper = [*middle_up, lead]
        g = IntPolynomial(upper[:0:-1] + upper)
        assert g.degree == 2 * (len(upper) - 1) and g.is_palindromic()
        assert palindromic_to_interval_poly(g) == palindromic_to_interval_poly_oracle(g)

    def test_matches_the_polynomial_recurrence_at_degree_600(self):
        g = P(*([1] + [0] * 299 + [-3] + [0] * 299 + [1]))
        assert palindromic_to_interval_poly(g) == palindromic_to_interval_poly_oracle(g)

    def test_rejects_non_palindromic(self):
        with pytest.raises(ValueError):
            palindromic_to_interval_poly(P(2, 1))
        with pytest.raises(ValueError, match="odd degree has root -1"):
            palindromic_to_interval_poly(P(1, 1))


class TestSturm:
    def test_simple_quadratic(self):
        p = P(-1, 0, 1)  # roots +-1
        assert count_real_roots_between(p, -2, 2) == 2
        assert count_real_roots_between(p, 0, 2) == 1

    def test_repeated_roots_counted_once(self):
        p = P(1, 1) * P(1, 1) * P(-1, 1)
        assert count_real_roots_between(p, -2, 2) == 2

    def test_no_real_roots(self):
        assert count_real_roots_between(P(1, 0, 1), -2, 2) == 0

    def test_endpoint_root_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots_between(P(-2, 1), -2, 2)

    def test_matches_numpy_on_random_polys(self):
        import random

        import numpy as np

        rng = random.Random(20240817)
        for _ in range(200):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
            p = IntPolynomial(coeffs)
            if p(-2) == 0 or p(2) == 0:
                continue
            roots = np.roots(list(reversed(p.coefficients)))
            real = {round(r.real, 6) for r in roots if abs(r.imag) < 1e-9 and -2 < r.real < 2}
            # numeric multiplicity clusters can blur; only compare when roots are separated
            if len(real) == len([r for r in roots if abs(r.imag) < 1e-9 and -2 < r.real < 2]):
                assert count_real_roots_between(p, -2, 2) == len(real)


def fraction_sturm_count(p, a, b):
    """The Fraction Sturm chain that the integer chain replaced: the canonical chain of the squarefree part."""

    def rem(u, v):
        u = list(u)
        while len(u) >= len(v):
            factor = u[-1] / v[-1]
            shift = len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= factor * c
            u.pop()
            while u and u[-1] == 0:
                u.pop()
        return u

    def value(coeffs, x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    sf = squarefree_part(p)
    chain = [[Fraction(c) for c in sf.coefficients]]
    if sf.degree > 0:
        chain.append([Fraction(c) for c in sf.derivative().coefficients])
        while r := rem(chain[-2], chain[-1]):
            chain.append([-c for c in r])

    def variations(x):
        signs = [v > 0 for v in (value(c, Fraction(x)) for c in chain) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b)


def sympy_count(p, a, b):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(p.coefficients)), x).count_roots(sympy.Rational(a), sympy.Rational(b))


@st.composite
def sturm_inputs(draw):
    p = IntPolynomial(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=11)))
    if draw(st.booleans()):  # a repeated factor, which the chain's squarefree part removes
        f = IntPolynomial(draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4)))
        p = p * f * f
    endpoint = st.one_of(
        st.integers(-6, 6), st.fractions(Fraction(-6), Fraction(6), max_denominator=12)
    )
    a, b = sorted((draw(endpoint), draw(endpoint)))
    assume(a < b and not p.is_zero and p(a) != 0 and p(b) != 0)
    return p, a, b


class TestIntegerSturm:
    @settings(max_examples=150, deadline=None)
    @given(sturm_inputs())
    def test_matches_fraction_chain_and_sympy(self, case):
        p, a, b = case
        count = count_real_roots_between(p, a, b)
        assert count == fraction_sturm_count(p, a, b) == sympy_count(p, a, b)

    @settings(max_examples=60, deadline=None)
    @given(sturm_inputs())
    def test_chain_terms_are_integer_polynomials_of_falling_degree(self, case):
        chain = sturm_chain(case[0])
        assert all(isinstance(q, IntPolynomial) for q in chain)
        assert all(q.degree > r.degree for q, r in zip(chain, chain[1:]))

    def test_float_endpoints_are_exact(self):
        p = P(-1, 0, 2)  # roots +-1/sqrt(2)
        assert count_real_roots_between(p, -0.75, 0.5) == 1
        assert count_real_roots_between(p, 0.5, 0.75) == 1
        assert count_real_roots_between(P(-1, 2), 0.25, 0.625) == 1
        with pytest.raises(ValueError, match="empty interval"):
            count_real_roots_between(p, Fraction(3, 2), 1.5)

    def test_substituted_polynomial_of_family_I_m5(self):
        # the unit-circle stage of the I m=5 (2,2,2,2,3) witness: degree 26, 1324-bit coefficients
        from anosovgraph.families import family_I
        from anosovgraph.graphs import coherent_components
        from anosovgraph.holonomy import build_action
        from anosovgraph.witness import build_witness

        inst = family_I(5, (2, 2, 2, 2, 3))
        p = build_witness(build_action(coherent_components(inst.graph), inst.generators)).full_char_poly
        assert p(1) != 0 and p(-1) != 0  # so the gcd below has no root at +-1 either
        q = palindromic_to_interval_poly(poly_gcd(p, p.reverse()))
        assert (q.degree, max(abs(c).bit_length() for c in q.coefficients)) == (26, 1324)
        assert count_real_roots_between(q, -2, 2) == fraction_sturm_count(q, -2, 2) == sympy_count(q, -2, 2) == 0


class TestCyclotomic:
    def test_small(self):
        assert cyclotomic(1).coefficients == (-1, 1)
        assert cyclotomic(2).coefficients == (1, 1)
        assert cyclotomic(5).coefficients == (1, 1, 1, 1, 1)
        assert cyclotomic(6).coefficients == (1, -1, 1)
        assert cyclotomic(12).coefficients == (1, 0, -1, 0, 1)

    def test_product_identity(self):
        # product over divisors of n gives x^n - 1
        for n in (6, 10, 12):
            prod = IntPolynomial([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPolynomial([-1] + [0] * (n - 1) + [1])


class TestCompanion:
    def test_shape_and_charpoly_property(self):
        p = P(1, -2, -1, 1)
        rows = companion_rows(p)
        assert len(rows) == 3
        # companion columns shift basis vectors; last column holds -coefficients
        assert [rows[i][2] for i in range(3)] == [-1, 2, 1]

    def test_needs_monic(self):
        with pytest.raises(ValueError):
            companion_rows(P(1, 2))


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^2-3x+1", (1, -3, 1)),
            ("x^3 - x^2 - 2x + 1", (1, -2, -1, 1)),
            ("-x^3", (0, 0, 0, -1)),
            ("7", (7,)),
            ("2*x + 5", (5, 2)),
            ("x", (0, 1)),
            ("x^2 + x + x", (0, 2, 1)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_polynomial(text).coefficients == expected

    PARSE_ERRORS = {
        "": "empty polynomial",
        "x^": "missing exponent after '^'",
        "x 3": "expected '+' or '-' between polynomial terms",
        "^2": "dangling sign in polynomial",
        "+": "dangling sign in polynomial",
        "3.5x": "cannot parse polynomial near '.5x'",
        # a character outside the tokens is reported before any grammar error
        "x x $": "cannot parse polynomial near ' $'",
        "2 3": "expected '+' or '-' between polynomial terms",
        "x^+1": "missing exponent after '^'",
        "--x": "dangling sign in polynomial",
        "   ": "empty polynomial",
    }

    @pytest.mark.parametrize("bad", list(PARSE_ERRORS))
    def test_parse_errors(self, bad):
        with pytest.raises(GraphInputError) as info:
            parse_polynomial(bad)
        assert str(info.value) == self.PARSE_ERRORS[bad]

    @pytest.mark.parametrize("bad", ["x^2 + 3*-x + 1", "2*", "*x"])
    def test_star_only_joins_a_coefficient_to_x(self, bad):
        with pytest.raises(GraphInputError) as info:
            parse_polynomial(bad)
        assert str(info.value) == "'*' must join a coefficient to x"

    def test_exponent_bound(self):
        assert parse_polynomial("x^10000 + 1") == IntPolynomial([1] + [0] * 9999 + [1])
        with pytest.raises(BoundExceeded, match="exponent 10001 exceeds the bound 10000"):
            parse_polynomial("x^10001 + 1")

    def test_exponent_beyond_int_conversion_is_above_the_bound(self):
        with pytest.raises(BoundExceeded) as info:
            parse_polynomial("x^" + "9" * 5000 + " + 1")
        assert str(info.value) == "exponent of 5000 digits exceeds the bound 10000"
        assert parse_polynomial("x^" + "0" * 5000 + "2") == P(0, 0, 1)
        # a coefficient that long is malformed input, not a bound
        with pytest.raises(GraphInputError, match="number with 5000 digits is too long"):
            parse_polynomial("x + " + "1" * 5000)

    def test_matches_the_token_list_oracle(self):
        """Seeded random strings over the token alphabet and stray characters: the same
        polynomial, or the same exception type and message, as the token-list parser.

        Inputs with a `*` outside coefficient*x, or an exponent int() cannot convert, are
        where the two differ on purpose; there the parser raises the '*' error or the
        oracle raised "too long".
        """
        pieces = [*"xx^+-* ", "  ", "\t", *"0123456789", "10", "007", *".$yX", "\u0663", "\u00a0"]
        long_pieces = ["1" * 4301, "0" * 4300 + "3"]
        rng = random.Random(0)
        compared = 0
        for _ in range(100_000):
            text = "".join(
                rng.choice(pieces if rng.random() < 0.98 else long_pieces) for _ in range(rng.randrange(13))
            )
            new, old = parse_outcome(parse_polynomial, text), parse_outcome(parse_polynomial_oracle, text)
            if outside_the_oracle(text):
                assert new == old or new == (GraphInputError, "'*' must join a coefficient to x") \
                    or old[0] is GraphInputError and "too long" in old[1], text
            else:
                assert new == old, text
                compared += 1
        assert compared > 80_000

    def test_format_roundtrip(self):
        whole = certify_whole_poly()[0]  # degree 50, coefficients of about 320 bits
        assert whole.degree == 50
        for coeffs in [(1, -3, 1), (1, -2, -1, 1), (-1, 0, 0, 1), (5,), (0, 1), whole.coefficients]:
            p = IntPolynomial(coeffs)
            assert parse_polynomial(format_polynomial(p)) == p
