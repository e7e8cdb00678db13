"""Differential tests for the modular gcd in anosovgraph.polynomials.

`poly_gcd` is compared with two oracles: the primitive pseudo-remainder
sequence it replaced (kept here as the slow reference) and sympy's gcd over
Z[x], normalised to a primitive polynomial with a positive leading
coefficient. Random inputs are products f*g and f*h that share the factor f.
Its Euclid mod a prime, on packed polynomials, is compared with the
coefficient-list Euclid it replaced (`tests_support_oracles.monic_gcd_mod`).
"""

import itertools

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import anosovgraph.polynomials as polynomials_module
from anosovgraph.polynomials import (
    IntPolynomial,
    _divides,
    _monic_gcd_mod,
    _pack,
    _prime_below,
    _word_primes,
    divide_exact,
    poly_gcd,
)
from tests_support_oracles import certify_whole_poly, monic_gcd_mod

SETTINGS = settings(max_examples=100, deadline=None)
FIRST_PRIMES = list(itertools.islice(_word_primes(), 4))
# the largest and the smallest word prime, and one between
KERNEL_PRIMES = [FIRST_PRIMES[0], _prime_below(2**15 + 1), 67]
X = sympy.Symbol("x")


def P(*ascending):
    return IntPolynomial(ascending)


def _pseudo_rem(a, b):
    # lc(b)^(deg a - deg b + 1) * a  mod  b, computed in Z
    rem = list(a)
    lb = b[-1]
    while len(rem) >= len(b) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        lead = rem[-1]
        shift = len(rem) - len(b)
        rem = [lb * c for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= lead * c
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return rem


def prs_gcd(p, q):
    """The primitive pseudo-remainder sequence that `poly_gcd` used to run."""
    if p.is_zero:
        return q.primitive()
    if q.is_zero:
        return p.primitive()
    a = list(p.primitive().coefficients)
    b = list(q.primitive().coefficients)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not any(r):
            return IntPolynomial(b).primitive()
        r = list(IntPolynomial(r).primitive().coefficients)
        a, b = b, r


def sympy_gcd(p, q):
    """sympy's gcd over ZZ as a primitive polynomial with a positive leading coefficient."""
    g = sympy.Poly(list(reversed(p.coefficients)), X, domain="ZZ").gcd(
        sympy.Poly(list(reversed(q.coefficients)), X, domain="ZZ")
    )
    return IntPolynomial([int(c) for c in reversed(g.all_coeffs())]).primitive()


def assert_matches_oracles(p, q):
    g = poly_gcd(p, q)
    assert g == prs_gcd(p, q)
    assert g == sympy_gcd(p, q)
    assert g == poly_gcd(q, p)
    return g


coefficients = st.one_of(
    st.integers(-9, 9), st.integers(-(2**40), 2**40), st.integers(-(2**100), 2**100)
)


def polys(min_degree=0, max_degree=6):
    return st.lists(coefficients, min_size=min_degree + 1, max_size=max_degree + 1).map(
        IntPolynomial
    ).filter(lambda p: p.degree >= min_degree)


class TestAgainstOracles:
    @SETTINGS
    @given(polys(), polys(), polys())
    def test_shared_factor(self, f, g, h):
        assert_matches_oracles(f * g, f * h)

    @SETTINGS
    @given(polys(min_degree=1), polys(), polys())
    def test_result_divides_both_and_keeps_the_shared_factor(self, f, g, h):
        a, b = f * g, f * h
        d = assert_matches_oracles(a, b)
        divide_exact(a.primitive(), d)
        divide_exact(b.primitive(), d)
        divide_exact(d, f.primitive())

    @SETTINGS
    @given(polys(), polys())
    def test_unrelated_inputs(self, p, q):
        assert_matches_oracles(p, q)


class TestExplicitCases:
    @pytest.mark.parametrize(
        "p, q, expected",
        [
            pytest.param(P(0), P(0), P(0), id="zero-zero"),
            pytest.param(P(0), P(6, 3), P(2, 1), id="zero-poly"),
            pytest.param(P(-4, 0, -2), P(0), P(2, 0, 1), id="poly-zero"),
            pytest.param(P(0), P(-7), P(1), id="zero-constant"),
            pytest.param(P(6), P(4), P(1), id="constants"),
            pytest.param(P(-3), P(1, 0, 1), P(1), id="constant-poly"),
            pytest.param(P(2, 2), P(4), P(1), id="poly-constant"),
        ],
    )
    def test_zero_and_constant_inputs(self, p, q, expected):
        assert assert_matches_oracles(p, q) == expected

    def test_negative_leading_coefficients(self):
        common = P(1, -3)  # -3x + 1
        p = common * P(2, 0, -5)
        q = common * P(-7, -1)
        assert assert_matches_oracles(p, q) == P(-1, 3)
        assert assert_matches_oracles(-p, -q) == P(-1, 3)

    @SETTINGS
    @given(st.lists(coefficients, min_size=1, max_size=12), st.booleans())
    def test_palindromic_is_its_own_reciprocal_gcd(self, half, odd):
        assume(half[0] != 0)
        p = IntPolynomial(half + half[::-1][1 if odd else 0 :])
        assert p.is_palindromic()
        assert assert_matches_oracles(p, p.reverse()) == p.primitive()

    def test_full_degree_gcd_of_large_palindrome(self):
        half = [(-1) ** k * (3**k * 7**40 + k) for k in range(20)]
        p = IntPolynomial(half + half[::-1])
        assert max(abs(c) for c in p.coefficients).bit_length() > 100
        assert assert_matches_oracles(p, p.reverse()) == p.primitive()
        assert assert_matches_oracles(p, IntPolynomial([3 * c for c in p.coefficients])) == p.primitive()


class TestUnluckyPrimes:
    """Inputs built so that the first primes the kernel tries are unusable."""

    def test_leading_coefficients_divisible_by_first_primes(self):
        lead = FIRST_PRIMES[0] * FIRST_PRIMES[1]
        f = P(5, -1, 2)
        p = f * P(1, lead)
        q = f * P(-3, lead * FIRST_PRIMES[2])
        assert assert_matches_oracles(p, q) == f

    def test_coprime_with_unlucky_first_prime(self):
        # x and x + p0 share the root 0 mod p0 only: that image has degree 1
        assert assert_matches_oracles(P(0, 1), P(FIRST_PRIMES[0], 1)) == P(1)

    @pytest.mark.parametrize("unlucky", [1, 2, 4])
    def test_cofactor_resultant_divisible_by_first_primes(self, unlucky):
        # resultant(x, x + c) = c, so the cofactors meet mod every prime dividing c
        c = 1
        for prime in FIRST_PRIMES[:unlucky]:
            c *= prime
        f = P(3, -2, 0, 1) * P(2**70 + 1, 5)
        assert assert_matches_oracles(f * P(0, 1), f * P(c, 1)) == f.primitive()

    @SETTINGS
    @given(polys(min_degree=1, max_degree=4), st.integers(1, 3), st.integers(-5, 5))
    def test_random_shared_factor_with_unlucky_cofactors(self, f, unlucky, shift):
        c = 1
        for prime in FIRST_PRIMES[:unlucky]:
            c *= prime
        g = P(shift, 1)
        assert_matches_oracles(f * g, f * P(shift + c, 1))
        assert_matches_oracles(f * g * P(0, FIRST_PRIMES[0]), f * P(shift + c, 1))


class TestTrialDivisionScreen:
    """`_divides` rejects by the values at 2 and 3 and accepts only by exact division."""

    @pytest.fixture
    def divisions(self, monkeypatch):
        calls = []
        real = polynomials_module.divide_exact
        monkeypatch.setattr(polynomials_module, "divide_exact", lambda n, d: calls.append(d) or real(n, d))
        return calls

    def test_screen_rejects_without_dividing(self, divisions):
        # (x - 5)(2) = -3 does not divide (x^2 + 1)(2) = 5
        assert not _divides(P(-5, 1), P(1, 0, 1))
        assert divisions == []

    @pytest.mark.parametrize(
        "d, n, expected",
        [
            (P(1, 1), P(-1, 0, 1), True),  # x + 1 divides x^2 - 1
            (P(-2, 1), P(1, 0, 1), False),  # d(2) = 0 and d(3) = 1: only the division rejects
        ],
        ids=["divisor", "past-the-screen"],
    )
    def test_what_passes_the_screen_is_divided(self, divisions, d, n, expected):
        assert _divides(d, n) is expected
        assert divisions == [d]

    @SETTINGS
    @given(polys(min_degree=1, max_degree=4), polys(min_degree=0, max_degree=6))
    def test_agrees_with_exact_division(self, d, n):
        try:
            divide_exact(n, d)
            exact = True
        except ValueError:
            exact = False
        assert _divides(d, n) is exact
        assert _divides(d, d * n)



def _scan_primes(count):
    """The first count primes below 2^30, largest first, by Miller-Rabin.

    The bases 2, 3, 5 and 7 decide every odd n < 3,215,031,751.
    """
    def is_prime(n):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    odd = range(2**30 - 1, 1, -2)
    return list(itertools.islice((n for n in odd if is_prime(n)), count))


class TestWordPrimes:
    def test_interleaved_and_fresh_generators_agree_with_a_scan(self):
        expected = _scan_primes(40)
        _prime_below.cache_clear()
        first, second = _word_primes(), _word_primes()
        a, b = [], []
        for _ in range(20):  # first runs ahead and searches; second reads what first found
            a += [next(first), next(first)]
            b.append(next(second))
        b += [next(second) for _ in range(20)]
        assert a == b == expected
        assert list(itertools.islice(_word_primes(), 40)) == expected
        assert _prime_below.cache_info().misses == 40  # each prime was searched for once


def _times_mod(f, g, prime):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % prime
    return out


@st.composite
def residue_lists(draw, prime, max_degree=60):
    """A coefficient list mod prime of degree 0..max_degree with a nonzero last entry.

    Entries lean on 0, 1 and prime - 1, the largest residue, as well as random ones.
    """
    entry = st.one_of(st.sampled_from([0, 1, prime - 1]), st.integers(0, prime - 1))
    body = draw(st.lists(entry, max_size=max_degree))
    return body + [draw(st.one_of(st.sampled_from([1, prime - 1]), st.integers(1, prime - 1)))]


class TestPackedKernel:
    """`_monic_gcd_mod` against the coefficient-list Euclid, on every prime size the gcd uses."""

    @SETTINGS
    @given(st.data(), st.sampled_from(KERNEL_PRIMES))
    def test_planted_common_factor(self, data, prime):
        f = data.draw(residue_lists(prime, max_degree=8))
        g = data.draw(residue_lists(prime, max_degree=52))
        h = data.draw(residue_lists(prime, max_degree=52))
        a, b = _times_mod(f, g, prime), _times_mod(f, h, prime)
        image = _monic_gcd_mod(a, b, prime)
        assert image == monic_gcd_mod(a, b, prime)
        assert len(image) >= len(f)  # the planted factor divides the image

    @SETTINGS
    @given(st.data(), st.sampled_from(KERNEL_PRIMES))
    def test_any_degree_gap(self, data, prime):
        # deg a - deg b ranges over -60..60: gaps above 1, and b above a
        a, b = data.draw(residue_lists(prime)), data.draw(residue_lists(prime))
        assert _monic_gcd_mod(a, b, prime) == monic_gcd_mod(a, b, prime)

    @SETTINGS
    @given(st.data(), st.sampled_from(KERNEL_PRIMES), st.integers(0, 2))
    def test_remainder_vanishes_or_is_constant(self, data, prime, constant):
        # a = b g + c: the first remainder is the constant c, zero when c = 0
        b = data.draw(residue_lists(prime, max_degree=30))
        g = data.draw(residue_lists(prime, max_degree=30))
        a = _times_mod(b, g, prime)
        a[0] = (a[0] + constant) % prime
        inv = pow(b[-1], -1, prime)
        expected = [1] if constant else [c * inv % prime for c in b]
        assert monic_gcd_mod(a, b, prime) == expected
        assert _monic_gcd_mod(a, b, prime) == expected
        if a[-1]:  # a = [0] when b, g and -c are constants that cancel
            assert _monic_gcd_mod(b, a, prime) == monic_gcd_mod(b, a, prime)

    @pytest.mark.parametrize("degree", [1, 2, 7, 30, 60])
    def test_largest_slot_load(self, degree):
        # Largest word prime p, b = -(1 + x + ... + x^m) and
        # a = -(1 + x + ... + x^(m-1)) - 2 x^m - x^(m+1): q = x + 1, so
        # m0 = m1 = p - 1 and the middle slots reach (p - 1) + 2 (p - 1)^2,
        # the bound of the docstring.
        prime = FIRST_PRIMES[0]
        b = [prime - 1] * (degree + 1)
        a = [prime - 1] * degree + [prime - 2, prime - 1]
        for x, y in [(a, b), (b, a), (b, b), (a, a), ([prime - 1] * 61, [prime - 1] * 60)]:
            assert _monic_gcd_mod(x, y, prime) == monic_gcd_mod(x, y, prime)

    def test_pack_puts_residue_i_in_slot_i(self):
        assert _pack([]) == 0
        assert _pack([5, 0, 2**64 - 1]) == 5 + ((2**64 - 1) << 256)


class TestCertifyWholeShaped:
    """A degree-50, 320-bit product of powered hyperbolic blocks, as the benchmark's `certify --poly` inputs."""

    def test_reciprocal_gcd_in_two_primes(self, monkeypatch):
        poly, palindromic = certify_whole_poly()
        assert poly.degree == 50
        assert max(abs(c) for c in poly.coefficients).bit_length() == 320
        images = []
        real = polynomials_module._monic_gcd_mod
        monkeypatch.setattr(
            polynomials_module, "_monic_gcd_mod", lambda a, b, prime: images.append(prime) or real(a, b, prime)
        )
        g = poly_gcd(poly, poly.reverse())
        assert g == palindromic == sympy_gcd(poly, poly.reverse())
        assert max(abs(c) for c in g.coefficients).bit_length() == 31
        # 31-bit coefficients need two primes' CRT: one more image would cost a prime
        assert images == FIRST_PRIMES[:2]
