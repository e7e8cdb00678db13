import inspect
import itertools
import random
import threading

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovgraph.errors import CancelToken, OperationCancelled
from anosovgraph.exactmat import RationalMatrix
import anosovgraph.hyperbolicity as hyperbolicity_module
from anosovgraph.hyperbolicity import (
    certify_factors,
    certify_polynomial,
    char_poly,
    exterior_square_char_poly,
    exterior_square_poly,
    is_integer_like,
    tensor_poly,
    unit_circle_analysis,
)
from anosovgraph.polynomials import (
    IntPolynomial,
    companion_rows,
    count_real_roots_between,
    cyclotomic,
    poly_gcd,
    sturm_chain,
)
from tests_support_oracles import CancelOnCheck, factor_product

CAT_MAP = ((2, 1), (1, 1))
CUBIC = IntPolynomial((1, -2, -1, 1))  # x^3 - x^2 - 2x + 1


def P(*ascending):
    return IntPolynomial(ascending)


def faddeev_leverrier(rows):
    """The recursion `char_poly` used before Newton's identities, on the whole matrix."""
    n = len(rows)
    m = [[0] * n for _ in range(n)]
    coeffs_desc = [1]
    for k in range(1, n + 1):
        m = [[sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            m[i][i] += coeffs_desc[-1]
        tr = sum(rows[i][j] * m[j][i] for i in range(n) for j in range(n))
        q, r = divmod(-tr, k)
        assert r == 0, "inexact division in characteristic polynomial"
        coeffs_desc.append(q)
    return IntPolynomial(list(reversed(coeffs_desc)))


def sympy_char_poly(rows):
    coeffs = sympy.Matrix(rows).charpoly().all_coeffs()  # descending
    return IntPolynomial([int(c) for c in reversed(coeffs)])


@st.composite
def shaped_matrices(draw):
    """(kind, matrix): a square integer matrix of size 1-12 of the given kind.

    The kinds are dense, sparse, block-diagonal, nilpotent and singular.
    Entries have up to 40 bits of either sign. The rows and columns are then
    permuted together, so a block-diagonal pattern is scattered over the matrix.
    """
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["dense", "sparse", "block", "nilpotent", "singular"]))
    bits = draw(st.sampled_from([1, 3, 12, 40]))
    entry = st.integers(-(2**bits), 2**bits)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        m = [[x if draw(st.integers(0, 9)) < 2 else 0 for x in row] for row in m]
    elif kind == "block":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        label = [sum(i >= c for c in cuts) for i in range(n)]
        m = [[x if label[i] == label[j] else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
    elif kind == "nilpotent":
        m = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
    elif kind == "singular":  # the last row is a combination of the others
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[(n - 1) // 2])] if n > 1 else [0]
    perm = draw(st.permutations(range(n)))
    return kind, [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


class TestCharPoly:
    def test_cat_map(self):
        assert char_poly(CAT_MAP) == P(1, -3, 1)

    def test_identity(self):
        for n in (1, 2, 5):
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            expected = IntPolynomial([1])
            for _ in range(n):
                expected = expected * P(-1, 1)
            assert char_poly(ident) == expected

    def test_companion_property(self):
        assert char_poly(companion_rows(CUBIC)) == CUBIC

    def test_matches_numpy(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            exact = char_poly(m)
            numeric = np.poly(np.array(m, dtype=float))  # descending
            assert np.allclose(list(reversed(exact.coefficients)), numeric, atol=1e-6)

    def test_block_diagonal_splits(self):
        m = [
            [2, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 3],
        ]
        assert char_poly(m) == P(1, -3, 1) * P(1, -3, 1)

    @settings(max_examples=200, deadline=None)
    @given(shaped_matrices())
    def test_matches_faddeev_leverrier_and_sympy(self, shaped):
        kind, m = shaped
        p = char_poly(m)
        assert p == faddeev_leverrier(m) == sympy_char_poly(m)
        if kind == "nilpotent":
            assert p == IntPolynomial([0] * len(m) + [1])
        elif kind == "singular":
            assert p.constant == 0

    def test_one_by_one(self):
        for a in (0, 1, -1, 2**40, -(2**40) + 1):
            assert char_poly([[a]]) == P(-a, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])
        # not a sequence of rows
        for m in (5, [1, 2], [[1, 2], 3]):
            with pytest.raises(ValueError, match="matrix"):
                char_poly(m)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            char_poly([[0.5]])


class TestIntegerLike:
    def test_cat_map_poly(self):
        assert is_integer_like(P(1, -3, 1))

    def test_non_unit_constant(self):
        assert not is_integer_like(P(-2, 0, 1))

    def test_cubic(self):
        assert is_integer_like(CUBIC)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_integer_like(P(1, 2))

    def test_matches_determinant(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = round(float(np.linalg.det(np.array(m, dtype=float))))
            assert is_integer_like(char_poly(m)) == (det in (1, -1))


class TestUnitCircle:
    def test_primitive_cube_roots(self):
        analysis = unit_circle_analysis(P(1, 1, 1))
        exists, detail = analysis.exists, analysis.detail
        assert exists
        assert "(-2, 2)" in detail

    def test_cat_map_clear(self):
        exists = unit_circle_analysis(P(1, -3, 1)).exists
        assert not exists

    def test_plus_minus_one(self):
        analysis = unit_circle_analysis(P(-1, 0, 1))
        assert analysis.exists and analysis.stage == "endpoints"
        assert analysis.detail == "root at x=1, x=-1"

    def test_cyclotomic_five(self):
        assert unit_circle_analysis(cyclotomic(5)).exists

    def test_cubic_clear(self):
        assert not unit_circle_analysis(CUBIC).exists

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_circle_analysis(P(0))

    def test_repeated_circle_roots(self):
        assert unit_circle_analysis(P(1, 1, 1) * P(1, 1, 1)).exists

    def test_mixed_product(self):
        assert unit_circle_analysis(P(1, -3, 1) * cyclotomic(8)).exists

    def test_agrees_with_numeric_oracle(self):
        # 1000 random integer matrices; disagreement is only allowed inside
        # the numeric margin band around the circle.
        rng = random.Random(20250809)
        checked = 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = char_poly(m)
            exact = unit_circle_analysis(p).exists
            moduli = np.abs(np.linalg.eigvals(np.array(m, dtype=float)))
            margin = float(np.min(np.abs(moduli - 1.0)))
            if margin > 1e-6:
                assert not exact, (m, margin)
                checked += 1
            else:
                numeric_hit = margin < 1e-9
                if numeric_hit:
                    assert exact or margin < 1e-6
        assert checked > 500


def dense_compound(rows):
    """The C(n,2) x C(n,2) second compound matrix: minors on row pair (i, j), column pair (k, l)."""
    pairs = list(itertools.combinations(range(len(rows)), 2))
    return [
        [rows[i][k] * rows[j][l] - rows[i][l] * rows[j][k] for (k, l) in pairs]
        for (i, j) in pairs
    ]


def dense_compound_char_poly(rows):
    """The dense path `exterior_square_char_poly` used to take: `char_poly` of the compound."""
    return char_poly(dense_compound(rows))


@st.composite
def int_matrices(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    bits = draw(st.sampled_from([2, 8, 40]))
    tenths = draw(st.sampled_from([3, 7, 10]))  # share of nonzero entries, in tenths
    entries = st.integers(-(2**bits), 2**bits)
    return [
        [draw(entries) if draw(st.integers(0, 9)) < tenths else 0 for _ in range(n)]
        for _ in range(n)
    ]


class TestExteriorSquare:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_matches_dense_compound(self, m):
        assert exterior_square_char_poly(m) == dense_compound_char_poly(m)

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_matches_sympy_charpoly_of_compound(self, m):
        assert exterior_square_char_poly(m) == sympy_char_poly(dense_compound(m))

    def test_polynomial_kernel_needs_monic_degree_two(self):
        assert exterior_square_poly(CUBIC) == P(-1, -1, 2, 1)
        with pytest.raises(ValueError):
            exterior_square_poly(P(1, 1))
        with pytest.raises(ValueError):
            exterior_square_poly(P(1, -3, 2))

    def test_cubic_pair_products(self):
        rows = companion_rows(CUBIC)
        assert exterior_square_char_poly(rows) == P(-1, -1, 2, 1)  # x^3 + 2x^2 - x - 1

    def test_two_by_two_gives_det(self):
        assert exterior_square_char_poly(CAT_MAP) == P(-1, 1)

    def test_identity(self):
        ident3 = [[int(i == j) for j in range(3)] for i in range(3)]
        assert exterior_square_char_poly(ident3) == P(-1, 1) * P(-1, 1) * P(-1, 1)

    def test_needs_dim_two(self):
        with pytest.raises(ValueError):
            exterior_square_char_poly([[3]])

    def test_spectrum_is_pair_products(self):
        # matched-pair comparison at 1e-9 when the eigenvalues are separated;
        # defective matrices cap any numeric eigensolver near sqrt(eps), so
        # those only get a coarse band
        rng = random.Random(11)
        separated = 0
        for _ in range(100):
            n = rng.randint(2, 5)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            eigs = np.linalg.eigvals(np.array(m, dtype=float))
            gap = min(
                (abs(eigs[i] - eigs[j]) for i in range(n) for j in range(i + 1, n)),
                default=1.0,
            )
            expected = [eigs[i] * eigs[j] for i, j in itertools.combinations(range(n), 2)]
            got = list(
                np.roots(list(reversed(exterior_square_char_poly(m).coefficients)))
            )
            tol = 1e-9 if gap > 1e-4 else 1e-4
            separated += gap > 1e-4
            pool = got[:]
            for e in expected:
                k = min(range(len(pool)), key=lambda i: abs(pool[i] - e))
                assert abs(pool[k] - e) <= tol * max(1.0, abs(e))
                pool.pop(k)
        assert separated > 60


def kronecker(a, b):
    return [
        [a[i][j] * b[k][l] for j in range(len(a)) for l in range(len(b))]
        for i in range(len(a))
        for k in range(len(b))
    ]


class TestTensorPoly:
    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_n=4), int_matrices(max_n=4))
    def test_matches_char_poly_of_kronecker_product(self, a, b):
        assert tensor_poly(char_poly(a), char_poly(b)) == char_poly(kronecker(a, b))

    def test_small_cases(self):
        # roots 2, 3 times roots 5, 7
        assert tensor_poly(P(6, -5, 1), P(35, -12, 1)) == P(-10, 1) * P(-14, 1) * P(-15, 1) * P(-21, 1)
        assert tensor_poly(CUBIC, P(-1, 1)) == CUBIC
        with pytest.raises(ValueError):
            tensor_poly(P(1, 2), CUBIC)


def two_pass_c2_certificate(m):
    """The certificate JSON of the path a level-2 matrix certificate used to take: the
    unit-circle test of p ran twice.

    The dict, validity and failure included, is written out here from
    `unit_circle_analysis` and `exterior_square_poly`, so the oracle neither
    calls the certificate it checks nor builds the class that derives them.
    """
    p = char_poly(m)
    first = unit_circle_analysis(p)
    stages = [{"label": "char_poly", "poly": list(p.coefficients), "analysis": first.to_json_dict()}]
    compound, failure = None, None
    if first.exists:
        failure = "eigenvalue on unit circle"
    else:
        first = unit_circle_analysis(p)
        stages[0]["analysis"] = first.to_json_dict()
        compound = exterior_square_poly(p)
        second = unit_circle_analysis(compound)
        stages.append(
            {"label": "exterior_square", "poly": list(compound.coefficients), "analysis": second.to_json_dict()}
        )
        if second.exists:
            failure = "pair product on unit circle"
    return {
        "level": 2,
        "char_poly": list(p.coefficients),
        "reciprocal_gcd_degree": first.reciprocal_gcd_degree,
        "sturm_root_count": first.sturm_root_count,
        "compound_char_poly": None if compound is None else list(compound.coefficients),
        "stages": stages,
        "valid": failure is None,
        "failure": failure,
    }


class TestCHyperbolic:
    @pytest.mark.parametrize(
        "rows, calls",
        [
            (companion_rows(CUBIC), 2),  # passes both stages
            (CAT_MAP, 2),  # passes on p, fails on the exterior square
            ([[1, 0], [0, 1]], 1),  # fails on p
            ([[0, -1], [1, -1]], 1),  # primitive cube roots of unity
        ],
    )
    def test_level_two_tests_each_polynomial_once(self, monkeypatch, rows, calls):
        seen = []
        real = hyperbolicity_module.unit_circle_analysis

        def counting(p):
            seen.append(p)
            return real(p)

        monkeypatch.setattr(hyperbolicity_module, "unit_circle_analysis", counting)
        cert = certify_polynomial(char_poly(rows), 2)
        assert len(seen) == calls
        assert seen[0] == char_poly(rows)
        if calls == 2:
            assert seen[1] == cert.compound_char_poly == exterior_square_poly(seen[0])

    @settings(max_examples=60, deadline=None)
    @given(int_matrices(max_n=5))
    def test_level_two_matches_the_two_pass_path(self, m):
        assert certify_polynomial(char_poly(m), 2).to_json_dict() == two_pass_c2_certificate(m)

    @pytest.mark.parametrize(
        "rows", [companion_rows(CUBIC), CAT_MAP, [[1, 0], [0, 1]], [[2, 1, 0], [1, 1, 0], [0, 0, 1]]]
    )
    def test_level_two_matches_the_two_pass_path_on_each_outcome(self, rows):
        assert certify_polynomial(char_poly(rows), 2).to_json_dict() == two_pass_c2_certificate(rows)

    def test_cat_map_level_one(self):
        cert = certify_polynomial(char_poly(CAT_MAP), 1)
        assert cert.valid and cert.level == 1
        assert cert.stages[0].analysis.sturm_root_count == 0

    def test_cat_map_level_two_fails(self):
        cert = certify_polynomial(char_poly(CAT_MAP), 2)
        assert not cert.valid
        assert cert.failure == "pair product on unit circle"

    def test_level_two_builds_its_own_compound(self):
        # the exterior square of x^2 - 3x + 1 is x - 1: the roots' product is 1
        cert = certify_polynomial(P(1, -3, 1), 2)
        assert cert.failure == "pair product on unit circle"
        assert cert.compound_char_poly == P(-1, 1)
        assert certify_polynomial(P(1, -2, 1), 2).compound_char_poly is None
        assert list(inspect.signature(certify_polynomial).parameters) == ["p", "level"]

    def test_cubic_level_two(self):
        cert = certify_polynomial(char_poly(companion_rows(CUBIC)), 2)
        assert cert.valid
        assert cert.compound_char_poly == P(-1, -1, 2, 1)

    def test_identity_fails_fast(self):
        cert = certify_polynomial(char_poly([[1, 0], [0, 1]]), 2)
        assert not cert.valid
        assert cert.failure == "eigenvalue on unit circle"

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            certify_polynomial(char_poly(CAT_MAP), 3)

    def test_accepts_rational_matrix(self):
        cert = certify_polynomial(char_poly(RationalMatrix(CAT_MAP).int_rows()), 1)
        assert cert.valid

    def test_json_serializable(self):
        import json

        cert = certify_polynomial(char_poly(companion_rows(CUBIC)), 2)
        blob = json.dumps(cert.to_json_dict(), sort_keys=True)
        assert "exterior_square" in blob


# Irreducibles for factor lists: roots at 0 and at +-1, roots on the circle
# away from +-1, palindromic and non-palindromic units with and without their
# reversals, and a non-monic pair 2x - 1, x - 2 of inverse roots.
IRREDUCIBLES = (
    P(0, 1),
    cyclotomic(1),
    cyclotomic(2),
    cyclotomic(3),
    cyclotomic(5),
    cyclotomic(8),
    P(1, -3, 1),
    CUBIC,
    CUBIC.reverse(),
    P(-1, -1, 1),
    P(-1, 1, 1),
    P(-1, -1, 0, 1),
    P(-1, 2),
    P(2, -1),
)


def product(polys):
    return factor_product((f, 1) for f in polys)


@st.composite
def factor_lists(draw):
    """(factor, multiplicity) lists whose factors share irreducibles, may repeat,
    and may come with their reversals or with their products by their reversals."""
    irreducible = st.sampled_from(IRREDUCIBLES)
    small = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(IntPolynomial)
    factor = st.lists(st.one_of(irreducible, small), min_size=1, max_size=2).map(product)
    factors = draw(st.lists(factor.filter(lambda f: not f.is_zero), min_size=1, max_size=3))
    for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
        factors.append(f.reverse())
    for f in draw(st.lists(st.sampled_from(factors), max_size=1)):
        factors.append(f * f.reverse())
    return [(f, draw(st.integers(1, 3))) for f in factors]


class TestCertifyFactors:
    @settings(max_examples=300, deadline=None)
    @given(factor_lists())
    def test_equals_the_whole_polynomial_certificate(self, factors):
        assert certify_factors(factors) == certify_polynomial(factor_product(factors), 1)

    @pytest.mark.parametrize(
        "factors, stage, valid",
        [
            ([(CUBIC, 3), (P(-1, -1, 0, 1), 1)], "reciprocal-gcd", True),
            ([(P(1, -3, 1), 2), (CUBIC * P(-1, -1, 1), 1)], "sturm", True),
            ([(CUBIC, 2), (CUBIC.reverse(), 1), (P(-1, -1, 1), 2)], "sturm", True),
            ([(CUBIC * P(-1, 1, 1), 1), (CUBIC.reverse() * P(-1, -1, 1), 2)], "sturm", True),
            ([(CUBIC * CUBIC.reverse(), 1), (CUBIC, 2)], "sturm", True),
            ([(CUBIC, 1), (cyclotomic(5) * P(-1, -1, 0, 1), 2)], "sturm", False),
            ([(P(1, -3, 1), 1), (cyclotomic(2), 2)], "endpoints", False),
            ([(P(-1, 2), 1), (P(2, -1), 3)], "sturm", True),
        ],
        ids=[
            "coprime-to-reversal",
            "palindromic-factor",
            "factor-and-its-reversal",
            "shared-irreducibles",
            "shared-with-a-reciprocal-factor",
            "circle-roots",
            "root-at-minus-one",
            "non-monic-inverse-pair",
        ],
    )
    def test_each_stage(self, factors, stage, valid):
        cert = certify_factors(factors)
        assert cert.stages[0].analysis.stage == stage and cert.valid == valid
        assert cert == certify_polynomial(factor_product(factors), 1)

    def test_product_is_built_from_the_factors(self):
        cert = certify_factors([(P(1, -3, 1), 2), (CUBIC, 1)])
        assert cert.char_poly == P(1, -3, 1) * P(1, -3, 1) * CUBIC
        assert cert.level == 1 and cert.compound_char_poly is None
        assert list(inspect.signature(certify_factors).parameters) == ["factors"]

    def test_rejects_zero_factor_and_multiplicity(self):
        with pytest.raises(ValueError):
            certify_factors([(P(0), 1)])
        with pytest.raises(ValueError):
            certify_factors([(CUBIC, 0)])

    def test_reciprocal_gcd_skips_the_whole_polynomial(self, monkeypatch):
        # (cubic * reversal)^3 * cubic^2: no gcd of the degree-24 product is taken
        factors = [(CUBIC, 2), (CUBIC.reverse(), 3), (P(-1, -1, 1), 1)]
        degrees = []
        real = hyperbolicity_module.poly_gcd

        def spy(p, q):
            degrees.append(max(p.degree, q.degree))
            return real(p, q)

        monkeypatch.setattr(hyperbolicity_module, "poly_gcd", spy)
        cert = certify_factors(factors)
        assert cert.stages[0].analysis.reciprocal_gcd_degree == 12
        assert max(degrees) < factor_product(factors).degree


def _degree_50():
    # reciprocal gcd (x^2 - 3x + 1)(x^2 + x + 1), so the test reaches the Sturm stage
    rng = random.Random(50)
    rest = IntPolynomial([rng.randint(-(2**20), 2**20) for _ in range(46)] + [1])
    return P(1, -3, 1) * P(1, 1, 1) * rest


class TestCancellation:
    def test_cancelled_token_interrupts(self):
        token = CancelToken()
        token.cancel()
        with token:
            with pytest.raises(OperationCancelled):
                char_poly([[2, 1], [1, 1]])
            with pytest.raises(OperationCancelled):
                poly_gcd(P(-1, 0, 1), P(1, 2, 1))
            with pytest.raises(OperationCancelled):
                unit_circle_analysis(_degree_50())

    def test_poly_gcd_stops_at_every_poll(self):
        f = P(*[3**189 + k for k in range(6)])  # 300-bit gcd: no single prime recovers it
        p, q = f * P(1, 1, 1), f * P(-1, 2, 0, 1)
        with CancelOnCheck() as token:
            assert poly_gcd(p, q) == f
        assert token.checks > 1
        for at in range(1, token.checks + 1):
            with CancelOnCheck(at), pytest.raises(OperationCancelled):
                poly_gcd(p, q)

    def test_unit_circle_analysis_stops_at_every_poll(self):
        p = _degree_50()
        assert p.degree == 50
        with CancelOnCheck() as token:
            analysis = unit_circle_analysis(p)
        assert analysis.stage == "sturm" and analysis.exists
        assert analysis.reciprocal_gcd_degree == 4
        for at in range(1, token.checks + 1):
            with CancelOnCheck(at), pytest.raises(OperationCancelled):
                unit_circle_analysis(p)

    def test_count_real_roots_stops_at_every_poll(self):
        f = P(*[3**189 + k for k in range(6)])  # the squarefree gcd needs many primes
        p = f * f * P(-3, 0, 1)
        with CancelOnCheck() as gcd_token:
            poly_gcd(p, p.derivative())
        with CancelOnCheck() as token:
            assert count_real_roots_between(p, -2, 2) == 3  # +-sqrt(3), and f's root near -1
        # the squarefree gcd polls too, then the chain once per remainder
        assert token.checks == gcd_token.checks + len(sturm_chain(p)) - 1
        for at in range(1, token.checks + 1):
            with CancelOnCheck(at), pytest.raises(OperationCancelled):
                count_real_roots_between(p, -2, 2)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_char_poly_stops_at_every_poll(self, n):
        m = [[(3 * i + 5 * j) % 7 + 1 for j in range(n)] for i in range(n)]  # no zero entry: one block
        with CancelOnCheck() as token:
            p = char_poly(m)
        assert p == sympy_char_poly(m)
        assert token.checks == (n - 1) + n  # once per product, once per coefficient
        for at in range(1, token.checks + 1):
            with CancelOnCheck(at), pytest.raises(OperationCancelled):
                char_poly(m)

    def test_exterior_square_stops_at_every_poll(self):
        p = P(1, 0, -3, 1) * P(-1, -4, 0, 1)  # degree 6: 15 pair products
        with CancelOnCheck() as token:
            compound = exterior_square_poly(p)
        assert compound == dense_compound_char_poly(companion_rows(p))
        assert token.checks == 2 * 15 + 15  # once per power sum, once per coefficient
        for at in range(1, token.checks + 1):
            with CancelOnCheck(at), pytest.raises(OperationCancelled):
                exterior_square_poly(p)

    def test_cancel_from_other_thread(self):
        # the worker's first poll waits until the main thread has cancelled the token
        polled, cancelled = threading.Event(), threading.Event()

        class WaitAtFirstPoll(CancelToken):
            __slots__ = ()

            def check(self):
                if not polled.is_set():
                    polled.set()
                    cancelled.wait(timeout=60)
                super().check()

        token = WaitAtFirstPoll()
        big = [[(i * j) % 5 - 2 for j in range(60)] for i in range(60)]
        result = {}

        def work():
            try:
                with token:
                    char_poly(big)
                result["outcome"] = "finished"
            except OperationCancelled:
                result["outcome"] = "cancelled"

        t = threading.Thread(target=work)
        t.start()
        assert polled.wait(timeout=60)
        token.cancel()
        cancelled.set()
        t.join(timeout=60)
        assert result["outcome"] == "cancelled"
