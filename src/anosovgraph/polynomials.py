"""Exact univariate polynomial arithmetic over the integers.

Everything here is exact: coefficients stay Python ints, also in Sturm chains,
whose terms are positive integer multiples of the canonical ones. Floating
point never enters. Coefficients are stored in ascending degree order.

The gcd in Z[x] is a small-prime modular gcd (Brown 1971): Euclid on the
images mod primes below 2^30, CRT on the images of least degree, then exact
trial division. An image of degree 0 proves the gcd is 1, since no image mod
a prime that divides neither leading coefficient has a lower degree than the
true gcd. Any other result is returned only after it divides both inputs
exactly, so the choice of primes affects the running time, never the answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul, sub

from .errors import BoundExceeded, GraphInputError, checkpoint


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending; the zero polynomial is ``(0,)``."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients):
        raw = list(coefficients)
        coeffs = [int(c) for c in raw]
        for c, r in zip(coeffs, raw):
            if c != r:
                raise ValueError(f"non-integer coefficient {r!r}")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        if self.is_zero:
            return -1
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    @property
    def leading(self) -> int:
        return self.coefficients[-1]

    @property
    def constant(self) -> int:
        return self.coefficients[0]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coefficients])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial([0])
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, e: int) -> "IntPolynomial":
        """self^e for an int e >= 0, by one big-integer power (Kronecker substitution).

        With f = self of degree d, the product f^e has degree D = d * e, and
        each coefficient c satisfies |c| <= ||f^e||_1 <= ||f||_1^e < 2^(w - 1),
        where ||.||_1 is the sum of the absolute coefficients (it is
        submultiplicative) and w is the least multiple of 8 that makes the
        last inequality hold. So f(2^w)^e = f^e(2^w) = sum c_j 2^(w j), and
        adding the offset sum 2^(w - 1) 2^(w j) over j <= D turns each
        c_j + 2^(w - 1), which lies in (0, 2^w), into the j-th base-2^w digit
        of a nonnegative integer below 2^(w (D + 1)). Its bytes, w / 8 per
        slot, give every c_j exactly. The schoolbook `__mul__` is the test
        oracle. Raises TypeError on a non-int exponent and ValueError on a
        negative one.
        """
        if not isinstance(e, int):
            raise TypeError(f"exponent must be an int, not {type(e).__name__}")
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return IntPolynomial([1])
        bound = sum(map(abs, self.coefficients)) ** e
        width = (bound.bit_length() + 8) // 8  # bytes per slot: bound < 2^(8 width - 1)
        shift = 8 * width
        packed = 0
        for c in reversed(self.coefficients):
            packed = (packed << shift) + c
        slots = (len(self.coefficients) - 1) * e + 1
        offset = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
        digits = (packed**e + offset).to_bytes(width * slots, "little")
        half = 1 << (shift - 1)
        return IntPolynomial(
            [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, len(digits), width)]
        )

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial([k * c for c in self.coefficients])

    def derivative(self) -> "IntPolynomial":
        if self.degree <= 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coefficients)][1:])

    def reverse(self) -> "IntPolynomial":
        """The reciprocal polynomial x^deg * p(1/x) (trailing zeros stripped)."""
        return IntPolynomial(tuple(reversed(self.coefficients)))

    def content(self) -> int:
        g = 0
        for c in self.coefficients:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPolynomial":
        """Divide out the content and normalize the leading coefficient to be positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coefficients])

    def is_palindromic(self) -> bool:
        return self.coefficients == tuple(reversed(self.coefficients))

    def __str__(self) -> str:
        return format_polynomial(self)


def divide_exact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact division in Z[x]; raises if the remainder is nonzero."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coefficients)
    d = den.coefficients
    out = [0] * max(len(rem) - len(d) + 1, 1)
    for shift in range(len(rem) - len(d), -1, -1):
        lead = rem[shift + len(d) - 1]
        q, r = divmod(lead, d[-1])
        if r != 0:
            raise ValueError("division is not exact over the integers")
        out[shift] = q
        if q:
            for i, c in enumerate(d):
                rem[shift + i] -= q * c
    if any(rem):
        raise ValueError("division is not exact over the integers")
    return IntPolynomial(out)


def _is_prime(n: int) -> bool:
    # Miller-Rabin for odd n > 61; the bases 2, 7 and 61 decide every n < 4,759,123,141.
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(n: int) -> int | None:
    """The largest prime in (61, n) for odd n, or None; each is searched for once per process."""
    return next((m for m in range(n - 2, 61, -2) if _is_prime(m)), None)


def _word_primes():
    """The primes below 2^30, largest first.

    CPython stores ints in 30-bit digits, so each residue is one digit and
    every reduction in `_monic_gcd_mod` divides by a single digit.
    """
    p = 2**30 + 1
    while (p := _prime_below(p)) is not None:
        yield p


def _monic_gcd_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    """Monic gcd in (Z/prime)[x] of two reduced, nonzero coefficient lists (ascending)."""
    while b:
        inv = pow(b[-1], -1, prime)
        n = len(b) - 1
        a = list(a)
        while len(a) > n:  # replace a by its remainder mod b, one leading term at a time
            c = a.pop() * inv % prime
            if c:
                shift = len(a) - n
                a[shift:] = [(x - c * y) % prime for x, y in zip(a[shift:], b)]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _divides(d: IntPolynomial, n: IntPolynomial) -> bool:
    try:
        divide_exact(n, d)
    except ValueError:
        return False
    return True


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd in Z[x] with a positive leading coefficient, by a small-prime modular gcd.

    Let A, B be the primitive parts of p and q, and G their gcd. Each prime
    below 2^30 that divides neither leading coefficient gives the monic gcd
    of A and B modulo it, by Euclid. That image has degree at least deg G,
    because G keeps its degree modulo the prime and divides both images; so
    an image of degree 0 proves G = 1. Otherwise only the images of least
    degree so far are kept. Once that degree is deg G, which holds for all
    but finitely many primes, the images scaled by gcd(lc A, lc B), which
    lc G divides, are images of one integer multiple of G; CRT recovers it
    once the primes' product exceeds twice its largest coefficient. After
    each prime, the primitive part of the symmetric lift is returned only if
    exact trial division shows that it divides both A and B. A common
    divisor of degree at least deg G is G up to sign, so the answer is exact
    whichever primes are unlucky; they only delay it. Polls `checkpoint` once
    per prime.
    """
    if p.is_zero:
        return q.primitive()
    if q.is_zero:
        return p.primitive()
    a, b = p.primitive(), q.primitive()
    gamma = gcd(a.leading, b.leading)
    degree, residues, modulus = None, [], 1
    for prime in _word_primes():
        checkpoint()
        if a.leading % prime == 0 or b.leading % prime == 0:
            continue
        image = _monic_gcd_mod(
            [c % prime for c in a.coefficients], [c % prime for c in b.coefficients], prime
        )
        if len(image) == 1:
            return IntPolynomial([1])
        if degree is None or len(image) - 1 < degree:
            degree, residues, modulus = len(image) - 1, [0] * len(image), 1
        elif len(image) - 1 > degree:
            continue  # an unlucky prime: the earlier images prove this degree too high
        scale, inv = gamma % prime, pow(modulus, -1, prime)
        residues = [r + modulus * ((c * scale - r) * inv % prime) for r, c in zip(residues, image)]
        modulus *= prime
        candidate = IntPolynomial([r - modulus if 2 * r > modulus else r for r in residues])
        candidate = candidate.primitive()
        if _divides(candidate, a) and _divides(candidate, b):
            return candidate
    raise AssertionError("ran out of primes below 2^30")


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    if p.degree <= 0:
        return p.primitive()
    return divide_exact(p.primitive(), poly_gcd(p, p.derivative())).primitive()


# ---------------------------------------------------------------------------
# Newton's identities: coefficients <-> power sums of the roots


def power_sums(p: IntPolynomial, count: int) -> list[int]:
    """[s_0, ..., s_count], s_k the sum of the k-th powers of the roots of monic p.

    Roots are counted with multiplicity, so s_0 = deg p. Newton's identities
    give each s_k from the coefficients and the earlier sums with integer
    products and sums only. Polls `checkpoint` once per k.
    """
    if not p.is_monic:
        raise ValueError("power sums need a monic polynomial")
    n = p.degree
    c = p.coefficients[::-1]  # c[i] is the coefficient of x^(n-i)
    s = [n]
    for k in range(1, count + 1):
        checkpoint()
        acc = k * c[k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc += c[i] * s[k - i]
        s.append(-acc)
    return s


def from_power_sums(sums: list[int]) -> IntPolynomial:
    """The monic polynomial of degree n = len(sums) - 1 whose roots have power sums sums[k].

    The inverse of `power_sums`; sums[0] (= n) is not read. The k-th step of
    Newton's identities divides by k. That division is exact whenever the
    sums are those of the roots of a monic integer polynomial, which is then
    the result; a remainder raises AssertionError. Polls `checkpoint` once per k.
    """
    c = [1]  # c[i] is the coefficient of x^(n-i)
    for k in range(1, len(sums)):
        checkpoint()
        acc = 0
        for i in range(k):
            acc += c[i] * sums[k - i]
        q, r = divmod(-acc, k)
        if r:
            raise AssertionError("inexact division in Newton's identities")
        c.append(q)
    return IntPolynomial(c[::-1])


# ---------------------------------------------------------------------------
# Sturm chains on integer polynomials


def _remainder_multiple(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The remainder of a by b times a positive rational, with integer coefficients.

    Each step multiplies the running remainder by |lc b| and subtracts
    sgn(lc b) * c * b * x^s, with c its leading coefficient; the result is
    divided by its positive content.
    """
    rem, scale, sign = list(a.coefficients), abs(b.leading), 1 if b.leading > 0 else -1
    low = b.coefficients[:-1]
    while len(rem) > len(low):
        c = sign * rem.pop()
        if c:
            shift = len(rem) - len(low)
            rem = [scale * x for x in rem]
            for i, y in enumerate(low):
                rem[shift + i] -= c * y
    out = IntPolynomial(rem)
    g = out.content()
    return IntPolynomial([x // g for x in out.coefficients]) if g > 1 else out


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of the squarefree part of p, on integer polynomials.

    Each term is a positive multiple of the canonical term (p, p', then minus
    each remainder), so every point has the same sign variations in both.
    Polls `checkpoint` once per remainder.
    """
    sf = squarefree_part(p)
    chain = [sf]
    if sf.degree <= 0:
        return chain
    chain.append(sf.derivative())
    while True:
        checkpoint()
        r = _remainder_multiple(chain[-2], chain[-1])
        if r.is_zero:
            return chain
        chain.append(-r)


def _cleared_value(p: IntPolynomial, num: int, den: int) -> int:
    """den^deg p * p(num / den), by Horner on integers; its sign is that of p(num / den) for den > 0."""
    acc, power = 0, 1
    for c in reversed(p.coefficients):
        acc = acc * num + c * power
        power *= den
    return acc


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_between(p: IntPolynomial, a, b) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    The endpoints are int, Fraction or float, taken exactly. Requires
    p(a) != 0 and p(b) != 0, which makes open and half-open counts coincide.
    """
    (a_num, a_den), (b_num, b_den) = a.as_integer_ratio(), b.as_integer_ratio()
    if a_num * b_den >= b_num * a_den:
        raise ValueError("empty interval")
    if _cleared_value(p, a_num, a_den) == 0 or _cleared_value(p, b_num, b_den) == 0:
        raise ValueError("interval endpoints must not be roots")
    chain = sturm_chain(p)
    va = _sign_variations(_cleared_value(q, a_num, a_den) for q in chain)
    vb = _sign_variations(_cleared_value(q, b_num, b_den) for q in chain)
    return va - vb


# ---------------------------------------------------------------------------
# Palindromic polynomials and the x + 1/x substitution


def palindromic_to_interval_poly(g: IntPolynomial) -> IntPolynomial:
    """For palindromic g of even degree 2s, the polynomial q with g(x) = x^s q(x + 1/x).

    Roots of g on the unit circle correspond to real roots of q in [-2, 2].
    Polls `checkpoint` once per k.
    """
    if g.is_zero or not g.is_palindromic():
        raise ValueError("polynomial is not palindromic")
    if g.degree % 2 != 0:
        raise ValueError("palindromic polynomial of odd degree has root -1")
    s = g.degree // 2
    coeffs = g.coefficients
    # t_k lists the coefficients of x^k + x^(-k) in y = x + 1/x: t_k = y t_(k-1) - t_(k-2)
    q = [coeffs[s]] + [0] * s
    t_prev, t_cur = [2], [0, 1]
    for k in range(1, s + 1):
        checkpoint()
        if c := coeffs[s + k]:
            q[: k + 1] = map(add, q, map(mul, t_cur, repeat(c)))
        t_next = [0, *t_cur]
        t_next[:k] = map(sub, t_next, t_prev)
        t_prev, t_cur = t_cur, t_next
    return IntPolynomial(q)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    result = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            result = divide_exact(result, cyclotomic(d))
    return result


def companion_rows(p: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Companion matrix of a monic polynomial, as integer rows."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coefficients[i]
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# Human-readable syntax, e.g. "x^3 - x^2 - 2x + 1"

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<x>x)|(?P<pow>\^)|(?P<op>[+-])|(?P<mul>\*))")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise GraphInputError(f"number with {len(digits)} digits is too long") from None


MAX_PARSED_EXPONENT = 10_000


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse integer polynomials in human syntax: "x^2-3x+1", "2*x + 5", "-x^3".

    Raises BoundExceeded on an exponent above `MAX_PARSED_EXPONENT`, before
    the dense coefficient list is built; at that degree one modular Euclid
    in `poly_gcd` already takes about 10^8 operations per prime.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise GraphInputError(f"cannot parse polynomial near {text[pos:]!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()

    coeffs: dict[int, int] = {}
    i = 0

    def take(kind):
        nonlocal i
        if i < len(tokens) and tokens[i][0] == kind:
            i += 1
            return tokens[i - 1][1]
        return None

    first = True
    while i < len(tokens):
        sign = 1
        op = take("op")
        if op is None and not first:
            raise GraphInputError("expected '+' or '-' between polynomial terms")
        if op == "-":
            sign = -1
        first = False
        num = take("num")
        take("mul")
        coef = sign * _parse_int(num) if num is not None else sign
        if take("x") is not None:
            if take("pow") is not None:
                exp = take("num")
                if exp is None:
                    raise GraphInputError("missing exponent after '^'")
                power = _parse_int(exp)
                if power > MAX_PARSED_EXPONENT:
                    raise BoundExceeded(f"exponent {power} exceeds the bound {MAX_PARSED_EXPONENT}")
            else:
                power = 1
        else:
            if num is None:
                raise GraphInputError("dangling sign in polynomial")
            power = 0
        coeffs[power] = coeffs.get(power, 0) + coef
    if not coeffs:
        raise GraphInputError("empty polynomial")
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return IntPolynomial(out)


def format_polynomial(p: IntPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for power in range(p.degree, -1, -1):
        c = p.coefficients[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        elif power == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{power}" if mag == 1 else f"{mag}x^{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
