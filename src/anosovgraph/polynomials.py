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
import sys
import threading
from array import array
from contextlib import contextmanager
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
    every reduction of a coefficient in `poly_gcd` divides by a single digit.
    The bound p < 2^30 also keeps each 128-bit slot of the packed sums in
    `_monic_gcd_mod` below 2^61, which its reduction needs.
    """
    p = 2**30 + 1
    while (p := _prime_below(p)) is not None:
        yield p


_SLOT = 128  # bits per residue of a packed polynomial
_SLOT_MASK = (1 << _SLOT) - 1
_BARRETT = 91  # s * ceil(2^91 / p) >> 91 is s // p for s < 2^61 and odd p < 2^30


def _pack(residues: list[int]) -> int:
    """The residues, each below 2^64, as one int: residue i in bits [128 i, 128 i + 128)."""
    words = array("Q", bytes(16 * len(residues)))  # two 64-bit words per slot, low word first
    words[::2] = array("Q", residues)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def _monic_gcd_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    """Monic gcd in (Z/prime)[x] of two lists of residues mod prime (ascending), b nonzero.

    Euclid on packed polynomials: a is the int A = sum a_i 2^(128 i), and
    likewise b, so that a remainder step is a few big-int operations instead
    of a Python loop over coefficients. A step cancels the two leading terms
    of a by q = q1 x^(k+1) + q0 x^k, whose coefficients come from those terms
    and the inverse of b's leading one, in one product:

        S = A + ((m0 + m1 2^128) B << 128 k),  m0 = -q0 mod p,  m1 = -q1 mod p.

    When deg a = deg b, it cancels the one leading term by q = q1, and
    S = A + m1 B.

    Slot bound. Slot i of S would hold s_i = a_i + m0 b_(i-k) + m1 b_(i-k-1),
    congruent mod p to the coefficient of x^i in a - q b. Every term is
    nonnegative and every factor at most p - 1, so
    s_i <= (p - 1) + 2 (p - 1)^2 < 2 p^2 <= 2^61, since p < 2^30
    (`_word_primes`). No slot carries into the next, so S's slots are the s_i.

    Reduction. With M = ceil(2^91 / p), M p = 2^91 + e for some e < p, so
    s_i M / 2^91 = s_i / p + s_i e / (p 2^91) and the last term is below 1 / p:
    floor(s_i M / 2^91) = floor(s_i / p) = t_i. Each s_i M < 2^122 + 2^61 fits
    its slot, so (S M) >> 91 holds t_i < 2^31 in the low 37 bits of slot i,
    and the mask ``quotients`` clears the bits above them, which come from
    slot i + 1. S - T p has the slots s_i - t_i p = s_i mod p, with no
    borrow: the reduced remainder, whose bit length gives its degree, also
    when a leading coefficient vanishes mod p.

    The result is the unique monic gcd in (Z/prime)[x].
    """
    reciprocal = (1 << _BARRETT) // prime + 1  # ceil(2^91 / p): p is odd
    quotients = _pack([(1 << (_SLOT - _BARRETT)) - 1] * max(len(a), len(b)))
    A, B = _pack(a), _pack(b)
    da, db = (A.bit_length() - 1) // _SLOT, (B.bit_length() - 1) // _SLOT  # degrees; 0 has -1
    while db > 0:
        inv = pow(B >> (_SLOT * db), -1, prime)
        while da >= db:  # replace A by its remainder mod B, two leading terms at a time
            top = A >> (_SLOT * (da - 1))
            q1 = (top >> _SLOT) * inv % prime
            if da > db:
                q0 = ((top & _SLOT_MASK) - q1 * ((B >> (_SLOT * (db - 1))) & _SLOT_MASK)) * inv % prime
                sums = A + ((-q0 % prime + (-q1 % prime << _SLOT)) * B << (_SLOT * (da - db - 1)))
            else:
                sums = A + -q1 % prime * B
            A = sums - ((sums * reciprocal >> _BARRETT) & quotients) * prime
            da = (A.bit_length() - 1) // _SLOT
        A, B, da, db = B, A, db, da
    if B:  # a nonzero constant divides both
        return [1]
    inv = pow(A >> (_SLOT * da), -1, prime)
    digits = A.to_bytes(16 * (da + 1), "little")
    return [int.from_bytes(digits[i : i + 8], "little") * inv % prime for i in range(0, len(digits), 16)]


def _divides(d: IntPolynomial, n: IntPolynomial) -> bool:
    """Whether d divides n in Z[x], by exact division.

    If it does, d(t) divides n(t) for every integer t, so a nonzero d(t)
    that leaves a remainder at t = 2 or 3 rejects d without the division.
    """
    for t in (2, 3):
        dt = d(t)
        if dt and n(t) % dt:
            return False
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
    exact trial division shows that it divides both A and B; a lift whose
    values at 2 or 3 do not divide theirs is rejected before dividing. A common
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

# The whole text must be these tokens and blanks; a term is then
# [+|-][digits][*x | x][^digits], with blanks between its tokens.
_TOKENS = re.compile(r"(?:\s*(?:\d+|x|\^|[+-]|\*))*")
_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(\*?)\s*(x\s*(\^\s*(\d*))?)?")

MAX_PARSED_EXPONENT = 10_000


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse integer polynomials in human syntax: "x^2-3x+1", "2*x + 5", "-x^3".

    Repeated powers add up. Raises BoundExceeded on an exponent above
    `MAX_PARSED_EXPONENT`, before the dense coefficient list is built; at that
    degree one modular Euclid in `poly_gcd` already takes about 10^8
    operations per prime.
    """
    end = _TOKENS.match(text).end()
    if text[end:].strip():
        raise GraphInputError(f"cannot parse polynomial near {text[end:]!r}")
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < end:  # each term takes at least one token or raises
        m = _TERM.match(text, pos)
        sign, digits, star, x, caret, exp = m.groups()
        if pos and not sign:
            raise GraphInputError("expected '+' or '-' between polynomial terms")
        try:
            coef = int(digits) if digits else 1
        except ValueError:  # more digits than int() converts
            raise GraphInputError(f"number with {len(digits)} digits is too long") from None
        if star and not (digits and x):
            raise GraphInputError("'*' must join a coefficient to x")
        if x is None:
            if not digits:
                raise GraphInputError("dangling sign in polynomial")
            power = 0
        elif caret is None:
            power = 1
        elif not exp:
            raise GraphInputError("missing exponent after '^'")
        else:
            exp = exp.lstrip("0") or "0"
            try:
                power = int(exp)
            except ValueError:  # more digits than int() converts, far above the bound
                raise BoundExceeded(
                    f"exponent of {len(exp)} digits exceeds the bound {MAX_PARSED_EXPONENT}"
                ) from None
            if power > MAX_PARSED_EXPONENT:
                raise BoundExceeded(f"exponent {power} exceeds the bound {MAX_PARSED_EXPONENT}")
        coeffs[power] = coeffs.get(power, 0) + (-coef if sign == "-" else coef)
        pos = m.end()
    if not coeffs:
        raise GraphInputError("empty polynomial")
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return IntPolynomial(out)


_INT_TEXT_LOCK = threading.RLock()


@contextmanager
def _int_text_unlimited():
    """Lift the interpreter's limit on int-to-decimal conversion while rendering.

    A certified witness polynomial can have coefficients of more than 4300
    digits, the default limit, and every int the certificate holds is
    printed. The text is that of ``str()`` either way. The previous limit,
    which also guards parsing, is restored on exit; interpreters before
    3.10.7 have no limit to lift. The limit is process-wide, so renders hold
    one lock: a render that ends cannot restore it under one still running
    on another thread.
    """
    with _INT_TEXT_LOCK:
        previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if previous:
            sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            if previous:
                sys.set_int_max_str_digits(previous)


def format_polynomial(p: IntPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    with _int_text_unlimited():
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
