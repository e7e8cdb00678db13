"""Rational decomposition of cyclic permutation representations and the main criterion.

For a cyclic group of order n acting on a finite set, the rational
irreducibles are indexed by divisors e of n; the summand for e has dimension
phi(e), occurs once for every cycle whose length e divides, and splits over
the reals into one piece when e <= 2 and phi(e)/2 pieces otherwise. An orbit
passes when every occurring summand satisfies multiplicity * real_splits > c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import CoherentPartition, index_cycles
from .holonomy import HolonomyAction


def euler_phi(n: int) -> int:
    result = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            result += 1
    return result


@dataclass(frozen=True)
class RepPart:
    """One rational irreducible summand: divisor, multiplicity, dimension, real splits."""

    divisor: int
    multiplicity: int
    q_dimension: int
    real_splits: int

    def to_json_dict(self) -> dict:
        return {
            "e": self.divisor,
            "m": self.multiplicity,
            "dim": self.q_dimension,
            "splits": self.real_splits,
        }


@dataclass(frozen=True)
class CyclicRepDecomposition:
    stabilizer_order: int
    cycle_type: tuple[int, ...]
    parts: tuple[RepPart, ...]


def decompose_cyclic_perm_rep(n: int, cycles) -> CyclicRepDecomposition:
    """Decompose the permutation representation of a cyclic group of order n
    whose generator acts with the given cycle lengths."""
    if n < 1:
        raise ValueError("group order must be positive")
    cycles = tuple(sorted(int(c) for c in cycles))
    for c in cycles:
        if c < 1 or n % c != 0:
            raise ValueError(f"cycle length {c} does not divide the group order {n}")
    parts = []
    for e in range(1, n + 1):
        if n % e != 0:
            continue
        multiplicity = sum(1 for c in cycles if c % e == 0)
        if multiplicity == 0:
            continue
        phi = euler_phi(e)
        splits = 1 if e <= 2 else phi // 2
        parts.append(RepPart(e, multiplicity, phi, splits))
    decomposition = CyclicRepDecomposition(n, cycles, tuple(parts))
    if sum(p.multiplicity * p.q_dimension for p in parts) != sum(cycles):
        raise AssertionError("rational dimensions do not sum to the point count")
    return decomposition


@dataclass(frozen=True)
class OrbitVerdict:
    """Outcome of the criterion on one orbit; ``passed`` is None when undecided."""

    orbit_rep: int
    c: int
    decomposition: CyclicRepDecomposition | None
    passed: bool | None
    failing_part: RepPart | None
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "rep": self.orbit_rep + 1,
            "c": self.c,
            "parts": [p.to_json_dict() for p in self.decomposition.parts]
            if self.decomposition
            else None,
            "pass": self.passed,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Decision:
    verdict: str  # "yes" | "no" | "undecided"
    orbits: tuple[OrbitVerdict, ...]
    realizability: str  # "guaranteed" | "unknown"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "orbits": [v.to_json_dict() for v in self.orbits],
            "realizability": self.realizability,
        }


def orbit_verdict(action: HolonomyAction, orbit_index: int) -> OrbitVerdict:
    """Apply the splitting criterion to one orbit of the component action."""
    orbit = action.orbits[orbit_index]
    stab = orbit.stabilizer
    if not stab.cyclic:
        return OrbitVerdict(
            orbit_rep=orbit.rep,
            c=orbit.c,
            decomposition=None,
            passed=None,
            failing_part=None,
            reason=f"undecided: stabilizer of order {stab.order} is not cyclic",
        )
    cycles = [len(c) for c in index_cycles(stab.restriction)]
    decomposition = decompose_cyclic_perm_rep(stab.order, cycles)
    for part in decomposition.parts:
        if part.multiplicity * part.real_splits <= orbit.c:
            return OrbitVerdict(
                orbit_rep=orbit.rep,
                c=orbit.c,
                decomposition=decomposition,
                passed=False,
                failing_part=part,
                reason=(
                    f"part e={part.divisor} has m*r = "
                    f"{part.multiplicity}*{part.real_splits} <= c = {orbit.c}"
                ),
            )
    return OrbitVerdict(
        orbit_rep=orbit.rep,
        c=orbit.c,
        decomposition=decomposition,
        passed=True,
        failing_part=None,
        reason="all parts satisfy m*r > c",
    )


def decide(action: HolonomyAction) -> Decision:
    """Aggregate orbit verdicts: yes when all pass, no when any fails,
    undecided when something is undecided and nothing fails.

    Realizability is `guaranteed` exactly for cyclic holonomy (the all-ones
    vertex vector is a fixed vector of any graph automorphism's extension),
    and `unknown` otherwise.
    """
    verdicts = tuple(orbit_verdict(action, i) for i in range(len(action.orbits)))
    if any(v.passed is False for v in verdicts):
        verdict = "no"
    elif any(v.passed is None for v in verdicts):
        verdict = "undecided"
    else:
        verdict = "yes"
    realizability = "guaranteed" if action.is_cyclic else "unknown"
    return Decision(verdict=verdict, orbits=verdicts, realizability=realizability)


def trivial_holonomy_check(part: CoherentPartition) -> Decision:
    """Direct component-size criterion for trivial holonomy.

    Independent of the decomposition path: a component passes when its size
    is at least 2, or at least 3 if it carries a loop. Serves as the oracle
    for `decide` with no generators.
    """
    verdicts = []
    for i, comp in enumerate(part.components):
        c = 2 if part.loops[i] else 1
        size = len(comp)
        needed = 3 if c == 2 else 2
        passed = size >= needed
        verdicts.append(
            OrbitVerdict(
                orbit_rep=i,
                c=c,
                decomposition=decompose_cyclic_perm_rep(1, [1] * size),
                passed=passed,
                failing_part=None if passed else RepPart(1, size, 1, 1),
                reason=f"component size {size} {'>=' if passed else '<'} {needed}",
            )
        )
    verdict = "yes" if all(v.passed for v in verdicts) else "no"
    return Decision(verdict=verdict, orbits=tuple(verdicts), realizability="guaranteed")
