"""Constructing certified integer witnesses on the full algebra.

The witness is assembled block-per-component: a certified seed on each orbit
representative, powered to separate eigenvalue magnitudes across orbits, and
copied to the other components of the orbit by conjugating with the orbit's
conjugators, which `holonomy.build_action` records. The algebra is that of
`action.graph`, whose vertices and edges are the bases of V and W (see
`liealg`), so no algebra object is built. The assembled matrix is
re-certified exactly on integer rows: invertibility on V, bracket
preservation on V + W, integer-likeness and unit-circle freeness of its
characteristic polynomial on V + W, and commutation with every generator.

That polynomial is read off the block structure instead of the dense V + W
matrix. Each conjugated block is a simultaneous permutation of its orbit's
block, so it has the same characteristic polynomial, and that of the block
seed^e comes from the seed's through power sums, s_k(seed^e) = s_ke(seed).
The seed's polynomial takes no matrix arithmetic for a catalog seed, which
carries the polynomial q it was built from and has polynomial q^d (see
`CatalogSeed`); only a structured seed's is taken densely, once per plan
and once in the search. The assembly asserts
that the V-part is block-diagonal over the coherent components, and the
bracket check proves that the W-part is the map induced on wedges with no
V-rows in the wedge columns. Under those checked facts the polynomial is
exactly the product of `extension_factors` of the block polynomials, and
`certify_factors` certifies it through those few distinct factors; its
certificate is the one the whole polynomial would get.

A seed is the first candidate of `seed_catalog` that the exact certificate
accepts at the orbit's level c. The candidates are integral and commute with
the stabilizer by construction, the last one (from Bass's cyclic units) with
determinant +-1; only the certificate decides hyperbolicity. The tests build
a certified witness for every cycle type called yes on one discrete or
complete component of at most 16 points, and tests/sweep_witnesses.py goes
on to 24 points.

`plan_blocks` is the one planner: a seed per orbit, searched once per
distinct stabilizer restriction and level c, then the exponents at margin 2
(see `choose_exponents`) from float estimates of the seeds' root moduli,
which only steer: the root solver returns whatever it reached, and
an orbit whose bounds cannot steer (the first orbit always, and any orbit
whose bounds are degenerate, NaN or overflow) takes exponent 1. Floats never
refuse a witness; the exact certificate of the one assembled matrix accepts
or refuses it.

Commutation with each generator's permutation matrix P is checked on V. Once
`extend_rows` has succeeded, the map A keeps the span E of the edge wedges,
and so does every generator (a checked graph automorphism). Both extensions
are zero between V and W and act on E as Λ²A and Λ²P, with Λ²A·Λ²P = Λ²(AP),
so they commute on V + W exactly when AP = PA on V.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil, gcd, isfinite, log, pi, prod

from .errors import (
    PreconditionViolation,
    SeedSearchExhausted,
    WitnessAssemblyError,
    WitnessRefused,
    checkpoint,
)
from .graphs import VertexPermutation, index_cycles
from .holonomy import HolonomyAction, OrbitData
from .hyperbolicity import (
    HyperbolicityCertificate,
    _matmul,
    certify_factors,
    certify_polynomial,
    char_poly,
    is_integer_like,
)
from .liealg import brackets_preserved, extend_rows, extension_factors
from .polynomials import (
    IntPolynomial,
    companion_rows,
    cyclotomic,
    format_polynomial,
    from_power_sums,
    palindromic_to_interval_poly,
    power_sums,
    squarefree_part,
)
from .repdecomp import decide, euler_phi

CAT_MAP_ROWS = ((2, 1), (1, 1))
CAT_MAP_POLY = IntPolynomial((1, -3, 1))


# ---------------------------------------------------------------------------
# Seed candidates


@lru_cache(maxsize=None)
def catalog_polynomials(dim: int) -> tuple[IntPolynomial, ...]:
    """Deterministic list of monic integer-like polynomials of the given degree.

    Degree 3 starts with the classical cubic unit x^3 - x^2 - 2x + 1; degree
    2 needs no head entry, since `seed_catalog` tries the cat map (char poly
    x^2 - 3x + 1) first. The rest come from cyclotomic polynomials rewritten
    through the x + 1/x substitution (totally real algebraic units), their
    sign flips, and the trinomials x^d - x - 1 and its reversal.
    """
    out: list[IntPolynomial] = [IntPolynomial((1, -2, -1, 1))] if dim == 3 else []

    def add(p: IntPolynomial) -> None:
        if p.constant in (1, -1) and p not in out:
            out.append(p)

    for n in range(3, 64):
        if euler_phi(n) != 2 * dim:
            continue
        q = palindromic_to_interval_poly(cyclotomic(n))
        add(q)
        # q(-x) up to sign: monic, as the leading coefficient keeps its sign
        add(IntPolynomial([c if (q.degree - i) % 2 == 0 else -c for i, c in enumerate(q.coefficients)]))
    if dim >= 2:
        add(IntPolynomial([-1, -1] + [0] * (dim - 2) + [1]))  # x^d - x - 1
        add(IntPolynomial([-1] + [0] * (dim - 2) + [1, 1]))  # its reversal, x^d + x^(d-1) - 1
    return tuple(out)


def commutes_with_perm(rows, perm: tuple[int, ...]) -> bool:
    """Whether rows commutes with the permutation e_i -> e_perm[i].

    That is rows[perm i][perm j] == rows[i][j] for all i, j: O(dim^2)
    comparisons, no matrix product.
    """
    n = len(perm)
    for i in range(n):
        row, image = rows[i], rows[perm[i]]
        if any(image[perm[j]] != row[j] for j in range(n)):
            return False
    return True


def _bass_unit(length: int) -> list[int]:
    """Coefficients of Bass's cyclic unit in Z[x]/(x^length - 1); empty when it has none.

    u = (1 + ... + x^(a-1))^phi + ((1 - a^phi)/length)(1 + ... + x^(length-1)),
    with phi = phi(length) and a the least integer in [2, length - 2] prime to
    length (none for length 1, 2, 3, 4, 6). u(1) = 1, and u(zeta) is a
    cyclotomic unit at every other length-th root of unity (H. Bass, Topology 4, 1966).
    """
    a = next((a for a in range(2, length - 1) if gcd(a, length) == 1), None)
    if a is None:
        return []
    phi = euler_phi(length)
    u = [1] + [0] * (length - 1)
    for _ in range(phi):
        u = [sum(u[(k - t) % length] for t in range(a)) for k in range(length)]
    return [x + (1 - a**phi) // length for x in u]


def structured_seed(stabilizer_perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """D * prod_{i<j} (I + R_ij) * prod_{i>j} (I + R_ij) on the stabilizer's cycles C_1..C_r.

    R_ij has a 1 at (C_i[k], C_j[s]) when k = s mod gcd(|C_i|, |C_j|); D is
    the circulant of `_bass_unit` on the first cycle of each length. Every
    factor is integral, commutes with the stabilizer and has determinant +-1.
    On the e-th isotypic part I + R_ij is I + (|C_j|/gcd) E_ij, so the
    unipotent product is a positive matrix there, and D puts a cyclotomic
    unit on each part of multiplicity 1; `find_seed` certifies the result.
    """
    dim = len(stabilizer_perm)
    cycles = index_cycles(stabilizer_perm)
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for length in {len(c) for c in cycles}:
        first = next(c for c in cycles if len(c) == length)
        u = _bass_unit(length)
        for k, t in itertools.product(range(len(u)), repeat=2):
            rows[first[(k + t) % length]][first[k]] = u[t]
    r = len(cycles)
    upper = [(i, j) for i in range(r) for j in range(i + 1, r)]
    lower = [(i, j) for i in range(r) for j in range(i)]
    for i, j in upper + lower:
        ci, cj = cycles[i], cycles[j]
        g = gcd(len(ci), len(cj))
        for row in rows:  # times I + R_ij: add columns of C_i to those of C_j
            for s, b in enumerate(cj):
                row[b] += sum(row[a] for a in ci[s % g :: g])
    return tuple(tuple(row) for row in rows)


class CatalogSeed(tuple):
    """The rows of a catalog seed, fixed together with the polynomial it was built from.

    ``CatalogSeed(small, base, cycles)`` lifts the r x r seed ``small``,
    whose characteristic polynomial is ``base``, along r cycles of one length
    d: rows[C_a[t]][C_b[t]] = small[a][b], and every other entry is 0. The
    positions t = 0..d-1 split the basis into d sets that the rows keep, and
    on each the rows are ``small``. So, up to a simultaneous permutation of
    the basis, the rows are block-diagonal with d copies of ``small``
    (small (x) I_d), and their characteristic polynomial, `char_poly`, is
    base^d. The rows and ``base`` are set here only; nothing changes them
    later.
    """

    def __new__(cls, small, base: IntPolynomial, cycles):
        dim = sum(map(len, cycles))
        rows = [[0] * dim for _ in range(dim)]
        for a, ca in enumerate(cycles):
            for b, cb in enumerate(cycles):
                if small[a][b]:
                    for i, j in zip(ca, cb):
                        rows[i][j] = small[a][b]
        seed = super().__new__(cls, map(tuple, rows))
        object.__setattr__(seed, "base", base)
        return seed

    def __setattr__(self, name, value):
        raise AttributeError("a catalog seed is immutable")

    @property
    def char_poly(self) -> IntPolynomial:
        return self.base ** (len(self) // self.base.degree)


def _seed_char_poly(rows) -> IntPolynomial:
    """The characteristic polynomial of seed rows: read off a `CatalogSeed`, otherwise taken densely."""
    return rows.char_poly if isinstance(rows, CatalogSeed) else char_poly(rows)


def seed_catalog(stabilizer_perm: tuple[int, ...]):
    """Finite ordered stream of candidate integer seed matrices for one orbit block.

    stabilizer_perm is the stabilizer's permutation of the component; its
    length is the dimension. When all its cycles have one length d, catalog
    seeds lifted along the cycles come first (a trivial stabilizer gets the
    catalog itself): each is a `CatalogSeed`, which carries the polynomial q
    it was built from, so its characteristic polynomial q^d needs no matrix
    arithmetic. `structured_seed` comes last, as plain rows. Each candidate
    is integral and commutes with the stabilizer by construction; none is
    proved hyperbolic. The tests build a witness from one for every cycle
    type that the criterion calls yes on one component of at most 16 points,
    at c = 1 and 2, and tests/sweep_witnesses.py goes on to 24 points
    (`structured_seed` alone certifies all 413 such types on at most 16).
    """
    # When all cycles have one length d, a seed B on the space of cycles lifts
    # to B (x) identity along each cycle; the lift commutes with the
    # stabilizer and inherits B's certificates (with d = 1 it is B). Catalog
    # seeds have irreducible char polys, so a permutation matrix commuting
    # with one lies in the field Q[B]; having eigenvalue 1, it is the identity.
    cycles = index_cycles(stabilizer_perm)
    lengths = {len(c) for c in cycles}
    if len(lengths) == 1:
        r = len(cycles)
        if r == 2:
            yield CatalogSeed(CAT_MAP_ROWS, CAT_MAP_POLY, cycles)
        for q in catalog_polynomials(r):
            yield CatalogSeed(companion_rows(q), q, cycles)
    yield structured_seed(stabilizer_perm)


def find_seed(
    stabilizer_perm: tuple[int, ...], c: int
) -> tuple[tuple[tuple[int, ...], ...], HyperbolicityCertificate]:
    """First certified seed commuting with stabilizer_perm, in `seed_catalog` order.

    Candidates commute with the stabilizer by construction; integer-likeness
    and the exact c-hyperbolicity certificate of the candidate's
    characteristic polynomial alone accept one. That polynomial is q^d for a
    `CatalogSeed`, and is taken densely only for the structured candidate.
    The tests cover every yes cycle type on one component of at most 16
    points, and tests/sweep_witnesses.py up to 24. SeedSearchExhausted means
    that no candidate certified, never that no seed exists.
    """
    dim = len(stabilizer_perm)
    tried = 0
    for rows in seed_catalog(stabilizer_perm):
        checkpoint()
        tried += 1
        p = _seed_char_poly(rows)
        if not is_integer_like(p):
            continue
        cert = certify_polynomial(p, c)
        if cert.valid:
            return rows, cert
    raise SeedSearchExhausted(
        f"no seed candidate certified (dim {dim}, c={c}, {tried} candidates)",
        candidates_tried=tried,
    )


# ---------------------------------------------------------------------------
# Exponent selection


ABERTH_MAX_SWEEPS = 200


def _aberth_roots(p: IntPolynomial) -> list[complex]:
    """Estimates of the roots of p, which must be simple and nonzero, in complex floats.

    Aberth-Ehrlich iteration (O. Aberth, Math. Comp. 27, 1973), Gauss-Seidel
    style. It starts on the circle of twice the roots' geometric mean modulus:
    a reciprocal polynomial's iteration would leave the unit circle only
    through rounding. It stops once the largest relative step is a few ulps,
    or below 2^-26 and no smaller than the last one (rounding noise), or
    after `ABERTH_MAX_SWEEPS` sweeps, and returns its last iterate either
    way. The roots only steer the exponents, so the solver never fails: on
    a structured seed of 16 points or more the steps stall above the stop
    rule, and on larger ones Horner's rule overflows to inf or NaN.
    Polls `checkpoint` once per sweep.
    """
    coeffs = [float(c) for c in reversed(p.coefficients)]  # leading first
    n = len(coeffs) - 1
    radius = 2 * abs(coeffs[-1] / coeffs[0]) ** (1 / n)
    roots = [cmath.rect(radius, 2 * pi * k / n + 0.4) for k in range(n)]
    previous = float("inf")
    for _ in range(ABERTH_MAX_SWEEPS):
        checkpoint()
        largest = 0.0
        for i, z in enumerate(roots):
            value, slope = coeffs[0], 0.0
            for c in coeffs[1:]:
                slope = slope * z + value
                value = value * z + c
            newton = value / slope
            pull = sum(1 / (z - other) for j, other in enumerate(roots) if j != i)
            step = newton / (1 - newton * pull)
            roots[i] = z - step
            largest = max(largest, abs(step) / abs(roots[i]))
        if largest <= 4 * 2.0**-52 or previous <= largest < 2.0**-26:
            break
        previous = largest
    return roots


def log_modulus_bounds(p: IntPolynomial | CatalogSeed) -> tuple[float, float]:
    """(min, max) of |log|root|| over the roots of p (with p(0) != 0), numerically.

    The roots are taken on the exact squarefree part of p: the same roots,
    each simple. A lifted seed's char poly is a power, and a float solver
    spreads a root of multiplicity m by about eps^(1/m); on (x^2 - 3x + 1)^3
    the spread is about 1e-5, while the simple roots of x^2 - 3x + 1 come out
    to a few ulps. p may also be a `CatalogSeed`, which stands for its
    polynomial q^d: the squarefree part of q^d is q itself, since every
    catalog polynomial and x^2 - 3x + 1 is squarefree (the tests check it),
    so q is read with no gcd and the bounds are those of q^d. The bounds are
    estimates that only steer `choose_exponents`: they may be inaccurate,
    infinite or NaN.
    """
    squarefree = p.base if isinstance(p, CatalogSeed) else squarefree_part(p)
    logs = [abs(log(abs(z))) for z in _aberth_roots(squarefree)]
    return min(logs), max(logs)


def choose_exponents(bounds) -> tuple[int, ...]:
    """Exponents k_i with k_i * min_i >= 2 * sum_{j<i} k_j * max_j.

    Margin 2 is the paper's separation of eigenvalue magnitudes across
    orbits, with slack. When the bounds are accurate, the product of a root
    of block i with one of an earlier block j has
    |log| >= k_i * min_i - k_j * max_j >= sum_{j<i} k_j * max_j: at or above
    the running sum, so off the unit circle, and it stays off while every
    bound is within a third of its value. The assembled matrix is
    re-certified exactly afterwards, so the bounds only steer. Each k_i is
    the ceiling of x = 2 * sum / min_i less a relative slack of 1e-9, below
    the bounds' own relative error: where x is an integer, the exponent
    does not depend on how the root solver rounds. Where the bounds cannot
    steer, k_i is 1: for the first orbit (the sum is 0), and where min_i is
    not above 1e-12 or x is not finite (NaN or overflowing bounds). Nothing
    raises; the certificate decides.
    """
    ks, acc = [], 0.0
    for lo, hi in bounds:
        x = 2 * acc / lo if lo > 1e-12 else 0.0
        ks.append(max(1, ceil(x * (1 - 1e-9))) if isfinite(x) else 1)
        acc += ks[-1] * hi
    return tuple(ks)


# ---------------------------------------------------------------------------
# Block plans and assembly


@dataclass(frozen=True)
class OrbitSeedPlan:
    """Seed and exponent for ``orbit``, which is the action's own `OrbitData`: its representative
    carries the block seed^exponent, and its conjugators copy that block to the other members."""

    orbit: OrbitData
    seed: tuple[tuple[int, ...], ...]
    exponent: int

    @cached_property
    def seed_char_poly(self) -> IntPolynomial:
        """The seed's characteristic polynomial: q^d for a `CatalogSeed`, else taken densely once per plan."""
        return _seed_char_poly(self.seed)

    @cached_property
    def block_char_poly(self) -> IntPolynomial:
        """The characteristic polynomial of seed^exponent, read off the seed's.

        Its roots are the exponent-th powers of the seed's, so its k-th power
        sum is the seed's (k * exponent)-th; `from_power_sums` checks every
        division.
        """
        p, e = self.seed_char_poly, self.exponent
        return from_power_sums(power_sums(p, p.degree * e)[::e])


@dataclass(frozen=True)
class Witness:
    """A certified integer automorphism of the full algebra.

    The matrix is integer rows, V first and then the edge wedges; `v_matrix`
    is its leading V block. The certificate is that of the characteristic
    polynomial of full_matrix, taken from its blocks (see the module
    docstring) and certified through its distinct factors; `full_char_poly`
    reads it from there. Its constant term is +-1, so the matrix is
    invertible over the integers, and it has no root on the unit circle.
    `v_char_poly` is the product of each plan's block polynomial raised to
    the number of its orbit's members.
    """

    full_matrix: tuple[tuple[int, ...], ...]
    certificate: HyperbolicityCertificate
    commutes_with: tuple[str, ...]
    plan: tuple[OrbitSeedPlan, ...]

    @property
    def v_matrix(self) -> tuple[tuple[int, ...], ...]:
        n = sum(len(p.seed) * len(p.orbit.members) for p in self.plan)
        return tuple(row[:n] for row in self.full_matrix[:n])

    @property
    def v_char_poly(self) -> IntPolynomial:
        blocks = (p.block_char_poly ** len(p.orbit.members) for p in self.plan)
        return prod(blocks, start=IntPolynomial([1]))

    @property
    def full_char_poly(self) -> IntPolynomial:
        return self.certificate.char_poly

    def to_json_dict(self) -> dict:
        """The JSON payload. Matrices stay tuple rows: the canonical writer writes them as lists."""
        return {
            "v_matrix": self.v_matrix,
            "full_matrix": self.full_matrix,
            "v_char_poly": list(self.v_char_poly.coefficients),
            "full_char_poly": list(self.full_char_poly.coefficients),
            "certificate": self.certificate.to_json_dict(),
            "commutes_with": list(self.commutes_with),
            "blocks": [
                {
                    "orbit_rep": p.orbit.rep + 1,
                    "seed": p.seed,
                    "exponent": p.exponent,
                    "seed_char_poly": list(p.seed_char_poly.coefficients),
                    "conjugators": [
                        [comp + 1, h.cycle_string()] for comp, h in p.orbit.conjugators
                    ],
                }
                for p in self.plan
            ],
        }

    def to_text(self) -> str:
        lines = ["Integer witness on the graph algebra", ""]
        for p in self.plan:
            lines.append(
                f"orbit of component {p.orbit.rep + 1}: seed char poly "
                f"{format_polynomial(p.seed_char_poly)}, exponent {p.exponent}"
            )
            for comp, h in p.orbit.conjugators:
                lines.append(f"  component {comp + 1} = conjugate by {h.cycle_string()}")
        lines.append("")
        lines.append(f"characteristic polynomial on V+W: {format_polynomial(self.full_char_poly)}")
        lines.append(f"constant term {self.full_char_poly.constant} (integer-like)")
        first = self.certificate.stages[0].analysis
        lines.append(
            f"unit-circle test: {first.detail} "
            f"(reciprocal gcd degree {first.reciprocal_gcd_degree}, "
            f"Sturm count {first.sturm_root_count})"
        )
        if self.commutes_with:
            lines.append("commutes exactly with the extension of: " + "; ".join(self.commutes_with))
        lines.append("bracket preservation verified on all basis pairs")
        return "\n".join(lines)


def _int_matpow(rows, k: int):
    """rows^k for k >= 1, by binary powering; polls `checkpoint` once per product.

    The first factor taken into the result is the result, not its product
    with the identity, but it is polled like a product.
    """
    result = None
    base = rows
    while k:
        if k & 1:
            checkpoint()
            result = base if result is None else _matmul(result, base)
        k >>= 1
        if k:
            checkpoint()
            base = _matmul(base, base)
    return tuple(tuple(r) for r in result)


def plan_blocks(action: HolonomyAction) -> tuple[OrbitSeedPlan, ...]:
    """Pick a certified seed for every orbit, then all exponents at once.

    Each seed commutes with the orbit's stabilizer on its representative;
    `choose_exponents` reads the exponents off the log-modulus bounds of
    the seeds' characteristic polynomials. `find_seed` and
    `log_modulus_bounds` are pure, so each runs once per distinct
    (restriction, c), and the orbits with that key share its seed and
    bounds. A catalog seed's bounds are read off its base q (see
    `log_modulus_bounds`). A non-cyclic stabilizer is refused: the
    criterion is undecided there.
    """
    keys = []
    for orbit in action.orbits:
        restriction = orbit.stabilizer.restriction
        if restriction is None:
            raise WitnessRefused("non-cyclic stabilizer; the criterion is undecided here")
        keys.append((restriction, orbit.c))
    seeds = {key: find_seed(*key) for key in dict.fromkeys(keys)}
    bounds = {
        key: log_modulus_bounds(seed if isinstance(seed, CatalogSeed) else cert.char_poly)
        for key, (seed, cert) in seeds.items()
    }
    exponents = choose_exponents([bounds[key] for key in keys])
    return tuple(
        OrbitSeedPlan(orbit, seeds[key][0], k) for orbit, key, k in zip(action.orbits, keys, exponents)
    )


def _require_yes(action: HolonomyAction) -> None:
    """Refuse witness construction unless the decision criterion says yes."""
    decision = decide(action)
    if decision.verdict != "yes":
        raise WitnessRefused(
            f"decision is '{decision.verdict}'; a witness exists only for 'yes' instances"
        )


def assemble_witness(action: HolonomyAction, plan: tuple[OrbitSeedPlan, ...]) -> Witness:
    """Assemble the block matrix from a plan and certify it exactly.

    The algebra is that of `action.graph`. Refuses outright when the
    decision criterion does not say yes. Any failing certificate raises a
    structured `WitnessAssemblyError` naming the stage.
    """
    _require_yes(action)
    return _assemble(action, plan)


def _assemble(action: HolonomyAction, plan: tuple[OrbitSeedPlan, ...]) -> Witness:
    graph = action.graph
    part = action.partition
    n = graph.num_vertices

    if tuple(p.orbit for p in plan) != action.orbits:
        raise WitnessAssemblyError("plan", "plan orbits do not match the action's orbits")
    if any(not isinstance(p.exponent, int) or p.exponent < 1 for p in plan):
        raise WitnessAssemblyError("plan", "every exponent must be an integer of at least 1")

    v_rows = [[0] * n for _ in range(n)]
    component_polys = [None] * part.num_components
    for orbit_plan in plan:
        orbit = orbit_plan.orbit
        comp = part.components[orbit.rep]
        dim = len(comp)
        seed = orbit_plan.seed
        if len(seed) != dim or any(len(r) != dim for r in seed):
            raise WitnessAssemblyError("plan", f"seed shape does not match component {orbit.rep + 1}")
        if not commutes_with_perm(seed, orbit.stabilizer.restriction):
            raise WitnessAssemblyError(
                "plan", "seed does not commute with the stabilizer on its component"
            )
        block = _int_matpow(seed, orbit_plan.exponent)
        block_poly = orbit_plan.block_char_poly
        placements = [(orbit.rep, VertexPermutation.identity(graph.vertices))]
        placements += list(orbit.conjugators)
        for member, h in placements:
            idx = [graph.index(h(v)) for v in comp]
            # a simultaneous permutation of the block keeps its char poly
            if sorted(idx) != sorted(part.member_positions[member]):
                raise WitnessAssemblyError(
                    "plan", f"conjugator does not carry the representative onto component {member + 1}"
                )
            for a in range(dim):
                for b in range(dim):
                    v_rows[idx[a]][idx[b]] = block[a][b]
            component_polys[member] = block_poly

    # V is block-diagonal over the components, so det V = +-(product of the blocks' constant terms).
    if None in component_polys or any(p.constant == 0 for p in component_polys):
        raise WitnessAssemblyError("extension", "map on V is not invertible")
    try:
        full = extend_rows(graph, v_rows)
    except PreconditionViolation as exc:
        raise WitnessAssemblyError("extension", str(exc)) from exc

    if not brackets_preserved(graph, full):
        raise WitnessAssemblyError("automorphism", "bracket preservation failed")

    _require_block_diagonal(action, full)
    certificate = certify_factors(extension_factors(part, component_polys))
    # The constant term is +-det of the V+W matrix, so integer-likeness also
    # proves it invertible; no separate determinant is taken.
    if not is_integer_like(certificate.char_poly):
        raise WitnessAssemblyError(
            "integer-like", f"constant term {certificate.char_poly.constant} is not a unit"
        )
    if not certificate.valid:
        raise WitnessAssemblyError("hyperbolicity", certificate.stages[0].analysis.detail)

    # Both extensions keep the edge wedges and act there as induced maps, so
    # commuting on V is commuting on V + W (see the module docstring).
    commuted = []
    for gen in action.generators:
        perm = tuple(graph.index(gen(v)) for v in graph.vertices)
        if not commutes_with_perm(v_rows, perm):
            raise WitnessAssemblyError(
                "commutation", f"witness does not commute with {gen.cycle_string()}"
            )
        commuted.append(gen.cycle_string())

    return Witness(
        full_matrix=full,
        certificate=certificate,
        commutes_with=tuple(commuted),
        plan=plan,
    )


def _require_block_diagonal(action: HolonomyAction, rows) -> None:
    """Raise AssertionError unless the V-part of rows is block-diagonal over the components.

    This is the premise under which the product of `extension_factors` of
    the block polynomials is the characteristic polynomial of rows.
    """
    n = action.graph.num_vertices
    component_of = action.partition.component_of
    for i in range(n):
        row, ci = rows[i], component_of[i]
        if any(row[j] for j in range(n) if component_of[j] != ci):
            raise AssertionError("the map on V is not block-diagonal over the coherent components")


def build_witness(action: HolonomyAction) -> Witness:
    """End-to-end witness construction: one plan, one assembly.

    The decision guard runs first, so a non-yes action is refused before
    any seed search. The exact re-certification in the assembly accepts
    the witness or raises the stage that failed; nothing is retried.
    """
    _require_yes(action)
    return _assemble(action, plan_blocks(action))
