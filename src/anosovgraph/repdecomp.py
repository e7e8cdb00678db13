"""Rational decomposition of cyclic permutation representations and the main criterion.

For a cyclic group of order n acting on a finite set, the rational
irreducibles are indexed by divisors e of n; the summand for e occurs once for
every cycle whose length e divides. Its dimension phi(e) and its number of
real pieces (one when e <= 2, phi(e)/2 otherwise) are read from e, so a part
stores only e and its multiplicity. An orbit passes when every occurring
summand satisfies multiplicity * real_splits > c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .graphs import CoherentPartition, index_cycles
from .holonomy import HolonomyAction, OrbitData


def euler_phi(n: int) -> int:
    result = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            result += 1
    return result


@dataclass(frozen=True)
class RepPart:
    """One rational irreducible summand: divisor e and multiplicity.

    Its dimension phi(e) and its number of real pieces are read from e.
    """

    divisor: int
    multiplicity: int

    @property
    def q_dimension(self) -> int:
        return euler_phi(self.divisor)

    @property
    def real_splits(self) -> int:
        return 1 if self.divisor <= 2 else self.q_dimension // 2

    def to_json_dict(self) -> dict:
        return {
            "e": self.divisor,
            "m": self.multiplicity,
            "dim": self.q_dimension,
            "splits": self.real_splits,
        }


def decompose_cyclic_perm_rep(n: int, cycles) -> tuple[RepPart, ...]:
    """The rational summands, by increasing divisor, of the permutation
    representation of a cyclic group of order n whose generator acts with the
    given cycle lengths."""
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
        if multiplicity:
            parts.append(RepPart(e, multiplicity))
    if sum(p.multiplicity * p.q_dimension for p in parts) != sum(cycles):
        raise AssertionError("rational dimensions do not sum to the point count")
    return tuple(parts)


@dataclass(frozen=True)
class OrbitVerdict:
    """Outcome of the criterion on one orbit, read from the orbit and its rational parts.

    The parts are those of the stabilizer's permutation representation on
    the representative, None when the stabilizer is not cyclic. The failing
    part is the first with m*r <= c; ``passed`` is None (undecided) without
    parts, and otherwise True exactly when no part fails.
    """

    orbit: OrbitData
    parts: tuple[RepPart, ...] | None

    @cached_property
    def failing_part(self) -> RepPart | None:
        if self.parts is None:
            return None
        c = self.orbit.c
        return next((p for p in self.parts if p.multiplicity * p.real_splits <= c), None)

    @property
    def passed(self) -> bool | None:
        return None if self.parts is None else self.failing_part is None

    @property
    def reason(self) -> str:
        if self.parts is None:
            return f"undecided: stabilizer of order {self.orbit.stabilizer.order} is not cyclic"
        part = self.failing_part
        if part is None:
            return "all parts satisfy m*r > c"
        return (
            f"part e={part.divisor} has m*r = "
            f"{part.multiplicity}*{part.real_splits} <= c = {self.orbit.c}"
        )

    def to_json_dict(self) -> dict:
        return {
            "rep": self.orbit.rep + 1,
            "c": self.orbit.c,
            "parts": None if self.parts is None else [p.to_json_dict() for p in self.parts],
            "pass": self.passed,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Decision:
    """The criterion on every orbit, and whether a yes is known to be realizable.

    The verdict is read from the orbits: ``no`` when any orbit fails, else
    ``undecided`` when any orbit is undecided, else ``yes``.
    """

    orbits: tuple[OrbitVerdict, ...]
    realizability: str  # "guaranteed" | "unknown"

    @property
    def verdict(self) -> str:
        passed = [v.passed for v in self.orbits]
        if any(p is False for p in passed):
            return "no"
        return "undecided" if None in passed else "yes"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "orbits": [v.to_json_dict() for v in self.orbits],
            "realizability": self.realizability,
        }


def decide(action: HolonomyAction) -> Decision:
    """The verdict of every orbit of the action (see `Decision` for how they aggregate).

    An orbit's parts decompose its stabilizer's action on the representative
    when the stabilizer is cyclic. Realizability is `guaranteed` exactly for
    cyclic holonomy (the all-ones vertex vector is a fixed vector of any graph
    automorphism's extension), and `unknown` otherwise.
    """
    verdicts = []
    for orbit in action.orbits:
        stab = orbit.stabilizer
        parts = None
        if stab.cyclic:
            parts = decompose_cyclic_perm_rep(stab.order, [len(c) for c in index_cycles(stab.restriction)])
        verdicts.append(OrbitVerdict(orbit, parts))
    return Decision(tuple(verdicts), "guaranteed" if action.is_cyclic else "unknown")


class TrivialHolonomyCheck(NamedTuple):
    verdict: str  # "yes" | "no"
    passed: tuple[bool, ...]


def trivial_holonomy_check(part: CoherentPartition) -> TrivialHolonomyCheck:
    """Direct component-size criterion for trivial holonomy.

    Independent of the decomposition and of the verdict records: a component
    passes when its size is at least 2, or at least 3 if it carries a loop.
    The oracle for `decide` with no generators, whose orbits are then the
    components in order. Returns the verdict, ``yes`` when all pass, and
    ``passed``, one flag per component.
    """
    passed = tuple(len(comp) >= (3 if loop else 2) for comp, loop in zip(part.components, part.loops))
    return TrivialHolonomyCheck("yes" if all(passed) else "no", passed)
