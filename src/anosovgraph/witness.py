"""Constructing certified integer witnesses on the full algebra.

The witness is assembled block-per-component: a certified seed on each orbit
representative, powered to separate eigenvalue magnitudes across orbits, and
copied to the other components of the orbit by conjugating with holonomy
elements. The assembled matrix is re-certified exactly on integer rows:
invertibility on V, bracket preservation on V + W, integer-likeness and
unit-circle freeness of its whole characteristic polynomial, and commutation
with every generator's extension.

That polynomial is read off the block structure instead of the dense V + W
matrix. Each conjugated block is a simultaneous permutation of its orbit's
block, so it has the same characteristic polynomial. The assembly asserts
that the V-part is block-diagonal over the coherent components, and the
bracket check proves that the W-part is the map induced on wedges with no
V-rows in the wedge columns. Under those checked facts the polynomial is
exactly `extension_char_poly` of the block polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil, prod

import numpy as np

from .errors import (
    PreconditionViolation,
    SeedSearchExhausted,
    WitnessAssemblyError,
    WitnessRefused,
)
from .graphs import VertexPermutation, index_cycles
from .holonomy import HolonomyAction
from .hyperbolicity import (
    CancelToken,
    HyperbolicityCertificate,
    certify_polynomial,
    char_poly,
    is_integer_like,
)
from .liealg import (
    GraphLieAlgebra,
    brackets_preserved,
    build_algebra,
    extend_permutation,
    extend_rows,
    extension_char_poly,
)
from .polynomials import (
    IntPolynomial,
    companion_rows,
    cyclotomic,
    format_polynomial,
    palindromic_to_interval_poly,
)
from .repdecomp import decide

DEFAULT_ENTRY_BOUND = 3
DEFAULT_SEARCH_CAP = 200_000
DEFAULT_MAX_RETRIES = 8

CAT_MAP_ROWS = ((2, 1), (1, 1))


# ---------------------------------------------------------------------------
# Seed catalog and bounded search


@lru_cache(maxsize=None)
def catalog_polynomials(dim: int) -> tuple[IntPolynomial, ...]:
    """Deterministic list of monic integer-like polynomials of the given degree.

    Head entries are the classical torus/reciprocal-unit seeds; the rest come
    from cyclotomic polynomials rewritten through the x + 1/x substitution
    (totally real algebraic units), their sign flips, and the trinomials
    x^d - x - 1 and its reversal.
    """
    explicit = {
        2: [IntPolynomial((1, -3, 1))],
        3: [IntPolynomial((1, -2, -1, 1))],
    }
    out: list[IntPolynomial] = list(explicit.get(dim, []))

    def add(p: IntPolynomial) -> None:
        if p.degree == dim and p.is_monic and p.constant in (1, -1) and p not in out:
            out.append(p)

    for n in range(3, 64):
        phi_poly = cyclotomic(n)
        if phi_poly.degree != 2 * dim:
            continue
        q = palindromic_to_interval_poly(phi_poly)
        add(q)
        flipped = IntPolynomial(
            [c if (q.degree - i) % 2 == 0 else -c for i, c in enumerate(q.coefficients)]
        )
        add(flipped if flipped.is_monic else -flipped)
    if dim >= 2:
        add(IntPolynomial([-1, -1] + [0] * (dim - 2) + [1]))  # x^d - x - 1
        add(IntPolynomial([-1] + [0] * (dim - 2) + [1, 1]))  # its reversal, x^d + x^(d-1) - 1
    return tuple(out)


def commutant_pair_orbits(perm: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Orbits of index pairs under (i, j) -> (perm i, perm j); integer basis of the commutant."""
    n = len(perm)
    seen = set()
    orbits = []
    for i in range(n):
        for j in range(n):
            if (i, j) in seen:
                continue
            orbit = []
            a, b = i, j
            while (a, b) not in seen:
                seen.add((a, b))
                orbit.append((a, b))
                a, b = perm[a], perm[b]
            orbits.append(sorted(orbit))
    orbits.sort()
    return orbits


def commutes_with_perm(rows, perm: tuple[int, ...], signs: tuple[int, ...] | None = None) -> bool:
    """Whether rows commutes with the signed permutation e_i -> signs[i] * e_perm[i].

    That is rows[perm i][perm j] == signs[i] * signs[j] * rows[i][j] for all
    i, j: O(dim^2) comparisons, no matrix product. Signs default to +1.
    """
    n = len(perm)
    if signs is None:
        signs = (1,) * n
    for i in range(n):
        row, image, s = rows[i], rows[perm[i]], signs[i]
        if any(image[perm[j]] != s * signs[j] * row[j] for j in range(n)):
            return False
    return True


def seed_catalog(dim: int, stabilizer_perm: tuple[int, ...] | None = None,
                 entry_bound: int = DEFAULT_ENTRY_BOUND):
    """Ordered stream of candidate integer seed matrices for one orbit block.

    Catalog companions come first (filtered to commute with the stabilizer's
    permutation on the component), then a bounded exhaustive search over the
    integer commutant with entries in [-entry_bound, entry_bound], in
    lexicographic coefficient order.
    """
    if stabilizer_perm is None:
        stabilizer_perm = tuple(range(dim))
    if len(stabilizer_perm) != dim:
        raise ValueError("stabilizer permutation has the wrong degree")

    if dim == 2:
        if commutes_with_perm(CAT_MAP_ROWS, stabilizer_perm):
            yield CAT_MAP_ROWS
    for p in catalog_polynomials(dim):
        rows = companion_rows(p)
        if commutes_with_perm(rows, stabilizer_perm):
            yield rows

    # When the stabilizer acts with uniform cycle length d > 1, a seed B on
    # the space of cycles lifts to B (x) identity along each cycle; the lift
    # commutes with the stabilizer and inherits B's certificates.
    cycles = index_cycles(stabilizer_perm)
    lengths = {len(c) for c in cycles}
    if len(lengths) == 1 and lengths != {1} and len(cycles) >= 1:
        d = lengths.pop()
        r = len(cycles)
        small = []
        if r == 2:
            small.append(CAT_MAP_ROWS)
        small.extend(companion_rows(p) for p in catalog_polynomials(r))
        for b in small:
            rows = [[0] * dim for _ in range(dim)]
            for a_idx in range(r):
                for b_idx in range(r):
                    if b[a_idx][b_idx] == 0:
                        continue
                    for t in range(d):
                        rows[cycles[a_idx][t]][cycles[b_idx][t]] = b[a_idx][b_idx]
            yield tuple(tuple(row) for row in rows)

    basis = commutant_pair_orbits(stabilizer_perm)
    span = range(-entry_bound, entry_bound + 1)
    for coeffs in itertools.product(span, repeat=len(basis)):
        rows = [[0] * dim for _ in range(dim)]
        for value, orbit in zip(coeffs, basis):
            for i, j in orbit:
                rows[i][j] = value
        yield tuple(tuple(r) for r in rows)


def find_seed(
    dim: int,
    c: int,
    stabilizer_perm: tuple[int, ...] | None = None,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
    search_cap: int = DEFAULT_SEARCH_CAP,
    cancel: CancelToken | None = None,
) -> tuple[tuple[tuple[int, ...], ...], HyperbolicityCertificate]:
    """First certified seed in canonical candidate order.

    Candidates are filtered by integer-likeness first, then by the exact
    c-hyperbolicity certificate. Exhaustion (or hitting the candidate cap)
    raises with the bounds used; it never asserts nonexistence beyond them.
    """
    tried = 0
    for rows in seed_catalog(dim, stabilizer_perm, entry_bound):
        if cancel is not None:
            cancel.check()
        tried += 1
        if tried > search_cap:
            raise SeedSearchExhausted(
                f"no certified seed within the first {search_cap} candidates "
                f"(dim {dim}, c={c}, entries bounded by {entry_bound})",
                dim=dim,
                c=c,
                entry_bound=entry_bound,
                candidates_tried=tried - 1,
            )
        p = char_poly(rows, cancel)
        if not is_integer_like(p):
            continue
        cert = certify_polynomial(p, c, cancel=cancel)
        if cert.valid:
            return tuple(tuple(r) for r in rows), cert
    raise SeedSearchExhausted(
        f"catalog and exhaustive search exhausted without a certified seed "
        f"(dim {dim}, c={c}, entries bounded by {entry_bound}, {tried} candidates)",
        dim=dim,
        c=c,
        entry_bound=entry_bound,
        candidates_tried=tried,
    )


# ---------------------------------------------------------------------------
# Exponent selection


def log_modulus_bounds(p: IntPolynomial) -> tuple[float, float]:
    """(min, max) of |log|root|| over the roots of p, numerically."""
    roots = np.roots(list(reversed(p.coefficients)))
    logs = np.abs(np.log(np.abs(roots)))
    return float(np.min(logs)), float(np.max(logs))


def choose_exponents(bounds, margin: float = 2.0) -> tuple[int, ...]:
    """Exponents k_i with k_i * min_i >= margin * sum_{j<i} k_j * max_j.

    Guarantees (up to the quality of the numeric bounds) that eigenvalue
    products across different orbits stay off the unit circle; the assembled
    matrix is re-certified exactly afterwards, so the bounds only steer the
    search.
    """
    ks = []
    acc = 0.0
    for lo, hi in bounds:
        if not lo > 1e-12:
            raise PreconditionViolation(
                "seed has an eigenvalue too close to the unit circle; it cannot be certified"
            )
        k = max(1, ceil(margin * acc / lo - 1e-9))
        ks.append(k)
        acc += k * hi
    return tuple(ks)


# ---------------------------------------------------------------------------
# Block plans and assembly


@dataclass(frozen=True)
class OrbitSeedPlan:
    """Seed, exponent, and conjugators realizing one orbit of components."""

    orbit_rep: int
    seed: tuple[tuple[int, ...], ...]
    exponent: int
    certificate: HyperbolicityCertificate
    conjugators: tuple[tuple[int, VertexPermutation], ...]


@dataclass(frozen=True)
class Witness:
    """A certified integer automorphism of the full algebra.

    The matrices are integer rows, V first and then the edge wedges.
    full_char_poly is the characteristic polynomial of full_matrix, taken
    from its blocks (see the module docstring) and certified as a whole:
    its constant term is +-1, so the matrix is invertible over the integers,
    and it has no root on the unit circle.
    """

    v_matrix: tuple[tuple[int, ...], ...]
    full_matrix: tuple[tuple[int, ...], ...]
    v_char_poly: IntPolynomial
    full_char_poly: IntPolynomial
    certificate: HyperbolicityCertificate
    commutes_with: tuple[str, ...]
    plan: tuple[OrbitSeedPlan, ...]

    def to_json_dict(self) -> dict:
        return {
            "v_matrix": [list(row) for row in self.v_matrix],
            "full_matrix": [list(row) for row in self.full_matrix],
            "v_char_poly": list(self.v_char_poly.coefficients),
            "full_char_poly": list(self.full_char_poly.coefficients),
            "certificate": self.certificate.to_json_dict(),
            "commutes_with": list(self.commutes_with),
            "blocks": [
                {
                    "orbit_rep": p.orbit_rep + 1,
                    "seed": [list(r) for r in p.seed],
                    "exponent": p.exponent,
                    "seed_char_poly": list(char_poly(p.seed).coefficients),
                    "conjugators": [
                        [comp + 1, h.cycle_string()] for comp, h in p.conjugators
                    ],
                }
                for p in self.plan
            ],
        }

    def to_text(self) -> str:
        lines = ["Integer witness on the graph algebra", ""]
        for p in self.plan:
            seed_poly = char_poly(p.seed)
            lines.append(
                f"orbit of component {p.orbit_rep + 1}: seed char poly "
                f"{format_polynomial(seed_poly)}, exponent {p.exponent}"
            )
            for comp, h in p.conjugators:
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
    n = len(rows)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(r) for r in rows]
    while k:
        if k & 1:
            result = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*base)] for row in result
            ]
        k >>= 1
        if k:
            base = [[sum(a * b for a, b in zip(row, col)) for col in zip(*base)] for row in base]
    return tuple(tuple(r) for r in result)


def _exponents(certificates, margin: float = 2.0) -> tuple[int, ...]:
    """Exponents separating the orbits' seeds, from their certified char polys."""
    return choose_exponents([log_modulus_bounds(cert.char_poly) for cert in certificates], margin)


def plan_blocks(
    action: HolonomyAction,
    *,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
    search_cap: int = DEFAULT_SEARCH_CAP,
    cancel: CancelToken | None = None,
) -> tuple[OrbitSeedPlan, ...]:
    """Pick certified seeds, exponents (at margin 2), and conjugators for every orbit.

    Each seed commutes with the orbit's stabilizer on its representative.
    """
    seeds = []
    for orbit in action.orbits:
        restriction = orbit.stabilizer.restriction
        if restriction is None:
            raise WitnessRefused("non-cyclic stabilizer; the criterion is undecided here")
        seed, cert = find_seed(
            len(restriction), orbit.c, restriction, entry_bound, search_cap, cancel
        )
        seeds.append((orbit, seed, cert))
    exponents = _exponents(cert for _, _, cert in seeds)
    plans = []
    for (orbit, seed, cert), k in zip(seeds, exponents):
        conjugators = []
        for member in orbit.members:
            if member == orbit.rep:
                continue
            h = next(
                h for h in action.elements if action.component_action[h][orbit.rep] == member
            )
            conjugators.append((member, h))
        plans.append(
            OrbitSeedPlan(
                orbit_rep=orbit.rep,
                seed=seed,
                exponent=k,
                certificate=cert,
                conjugators=tuple(conjugators),
            )
        )
    return tuple(plans)


def _require_yes(action: HolonomyAction) -> None:
    """Refuse witness construction unless the decision criterion says yes."""
    decision = decide(action)
    if decision.verdict != "yes":
        raise WitnessRefused(
            f"decision is '{decision.verdict}'; a witness exists only for 'yes' instances"
        )


def assemble_witness(
    action: HolonomyAction,
    plan: tuple[OrbitSeedPlan, ...],
    alg: GraphLieAlgebra | None = None,
    cancel: CancelToken | None = None,
) -> Witness:
    """Assemble the block matrix from a plan and certify it exactly.

    Refuses outright when the decision criterion does not say yes. Any failing
    certificate raises a structured error naming the stage, so callers can
    escalate exponents and retry.
    """
    _require_yes(action)
    return _assemble(action, plan, build_algebra(action.graph) if alg is None else alg, cancel)


def _assemble(
    action: HolonomyAction,
    plan: tuple[OrbitSeedPlan, ...],
    alg: GraphLieAlgebra,
    cancel: CancelToken | None,
) -> Witness:
    graph = action.graph
    part = action.partition
    n = graph.num_vertices

    by_rep = {orbit.rep: orbit for orbit in action.orbits}
    if sorted(p.orbit_rep for p in plan) != sorted(by_rep):
        raise WitnessAssemblyError("plan", "plan orbits do not match the action's orbits")

    v_rows = [[0] * n for _ in range(n)]
    component_polys = [None] * part.num_components
    for orbit_plan in plan:
        orbit = by_rep[orbit_plan.orbit_rep]
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
        block_poly = char_poly(block, cancel)
        placements = [(orbit.rep, VertexPermutation.identity(graph.vertices))]
        placements += list(orbit_plan.conjugators)
        for member, h in placements:
            if action.component_action[h][orbit.rep] != member:
                raise WitnessAssemblyError(
                    "plan", f"conjugator does not carry the representative to component {member + 1}"
                )
            idx = [graph.index(h(v)) for v in comp]
            # a simultaneous permutation of the block keeps its char poly
            if sorted(idx) != sorted(graph.index(v) for v in part.components[member]):
                raise WitnessAssemblyError(
                    "plan", f"conjugator does not carry the representative onto component {member + 1}"
                )
            for a in range(dim):
                for b in range(dim):
                    v_rows[idx[a]][idx[b]] = block[a][b]
            component_polys[member] = block_poly

    # V is block-diagonal over the components, so det V = +-(constant term of v_char_poly).
    if None in component_polys:
        raise WitnessAssemblyError("extension", "map on V is not invertible")
    v_char_poly = prod(component_polys, start=IntPolynomial([1]))
    if v_char_poly.constant == 0:
        raise WitnessAssemblyError("extension", "map on V is not invertible")
    try:
        full = extend_rows(alg, v_rows)
    except PreconditionViolation as exc:
        raise WitnessAssemblyError("extension", str(exc)) from exc

    if not brackets_preserved(alg, full):
        raise WitnessAssemblyError("automorphism", "bracket preservation failed")

    _require_block_diagonal(action, full)
    full_poly = extension_char_poly(part, component_polys, cancel)
    # The constant term is +-det of the V+W matrix, so integer-likeness also
    # proves it invertible; no separate determinant is taken.
    if not is_integer_like(full_poly):
        raise WitnessAssemblyError(
            "integer-like", f"constant term {full_poly.constant} is not a unit"
        )

    certificate = certify_polynomial(full_poly, 1, cancel=cancel)
    if not certificate.valid:
        raise WitnessAssemblyError("hyperbolicity", certificate.stages[0].analysis.detail)

    # Each generator extends to a signed permutation of the V+W basis, so
    # commutation is a reindexing check on the integer rows.
    commuted = []
    for gen in action.generators:
        try:
            sigma, signs = extend_permutation(alg, gen)
        except PreconditionViolation as exc:
            raise WitnessAssemblyError("commutation", str(exc)) from exc
        if not commutes_with_perm(full, sigma, signs):
            raise WitnessAssemblyError(
                "commutation", f"witness does not commute with {gen.cycle_string()}"
            )
        commuted.append(gen.cycle_string())

    return Witness(
        v_matrix=tuple(tuple(row) for row in v_rows),
        full_matrix=full,
        v_char_poly=v_char_poly,
        full_char_poly=full_poly,
        certificate=certificate,
        commutes_with=tuple(commuted),
        plan=plan,
    )


def _require_block_diagonal(action: HolonomyAction, rows) -> None:
    """Raise AssertionError unless the V-part of rows is block-diagonal over the components.

    This is the premise under which `extension_char_poly` of the block
    polynomials is the characteristic polynomial of rows.
    """
    graph = action.graph
    n = graph.num_vertices
    component_of = [0] * n
    for c, comp in enumerate(action.partition.components):
        for v in comp:
            component_of[graph.index(v)] = c
    for i in range(n):
        row, ci = rows[i], component_of[i]
        if any(row[j] for j in range(n) if component_of[j] != ci):
            raise AssertionError("the map on V is not block-diagonal over the coherent components")


def build_witness(
    action: HolonomyAction,
    alg: GraphLieAlgebra | None = None,
    *,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
    search_cap: int = DEFAULT_SEARCH_CAP,
    cancel: CancelToken | None = None,
) -> Witness:
    """End-to-end witness construction with exponent escalation.

    Seeds and conjugators are searched once. Each of up to
    `DEFAULT_MAX_RETRIES` retries recomputes only the exponents, at double
    the separation margin; the exact re-certification in the assembly is
    what finally accepts.
    """
    _require_yes(action)
    if alg is None:
        alg = build_algebra(action.graph)
    plan = plan_blocks(action, entry_bound=entry_bound, search_cap=search_cap, cancel=cancel)
    margin = 2.0
    last_error: WitnessAssemblyError | None = None
    for attempt in range(DEFAULT_MAX_RETRIES + 1):
        if attempt:
            margin *= 2
            exponents = _exponents((p.certificate for p in plan), margin)
            plan = tuple(replace(p, exponent=k) for p, k in zip(plan, exponents))
        try:
            return _assemble(action, plan, alg, cancel)
        except WitnessAssemblyError as exc:
            if exc.stage != "hyperbolicity":
                raise
            last_error = exc
    raise last_error
