"""End-to-end analysis pipeline and report rendering.

Reports are deterministic: the canonical JSON contains no timestamps or
timings, so identical inputs serialize byte-for-byte identically. Wall-clock
timings live in a separate field that callers print to stderr.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .errors import (
    PreconditionViolation,
    SeedSearchExhausted,
    WitnessAssemblyError,
    WitnessRefused,
)
from .graphs import CoherentPartition, Graph, coherent_components
from .holonomy import DEFAULT_GROUP_ORDER_BOUND, HolonomyAction, build_action
from .hyperbolicity import CancelToken
from .liealg import build_algebra
from .repdecomp import Decision, decide
from .witness import (
    DEFAULT_ENTRY_BOUND,
    DEFAULT_SEARCH_CAP,
    Witness,
    build_witness,
)


def _json_text(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing newline.

    Every JSON document the package writes goes through here. It is private,
    so a per-layer trace charges the encoding to the function that renders.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def component_label(i: int) -> str:
    return f"lambda_{i + 1}"


@dataclass
class AnalysisReport:
    """Everything the pipeline produced for one input."""

    graph: Graph
    partition: CoherentPartition
    action: HolonomyAction
    decision: Decision
    algebra_dimension: int
    witness: Witness | None = None
    witness_error: str | None = None
    timing: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 1, "undecided": 2}[self.decision.verdict]

    def canonical_dict(self) -> dict:
        out = {
            "graph": self.graph.to_json_dict(),
            "algebra_dimension": self.algebra_dimension,
            "partition": self.partition.to_json_dict(),
            "holonomy": self.action.to_json_dict(),
            "decision": self.decision.to_json_dict(),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.witness_error is not None:
            out["witness_error"] = self.witness_error
        return out

    def to_json(self) -> str:
        return _json_text(self.canonical_dict())

    def to_text(self) -> str:
        g, part = self.graph, self.partition
        lines = [f"graph: {g.num_vertices} vertices, {g.num_edges} edges"]
        lines.append(f"algebra dimension: {self.algebra_dimension}")
        for i, comp in enumerate(part.components):
            loop = ", loop" if part.loops[i] else ""
            lines.append(
                f"  {component_label(i)} = {{{', '.join(comp)}}} ({part.kinds[i]}{loop})"
            )
        if part.order_pairs:
            rels = sorted(part.order_pairs)
            lines.append(
                "order: "
                + "; ".join(f"{component_label(i)} < {component_label(j)}" for i, j in rels)
            )
        if part.quotient_edges:
            lines.append(
                "quotient edges: "
                + ", ".join(
                    f"{component_label(i)}-{component_label(j)}" for i, j in part.quotient_edges
                )
            )
        gens = ", ".join(g.cycle_string() for g in self.action.generators) or "(trivial)"
        lines.append(f"holonomy: order {self.action.order}, generators {gens}")
        for verdict in self.decision.orbits:
            status = {True: "pass", False: "FAIL", None: "undecided"}[verdict.passed]
            lines.append(
                f"orbit of {component_label(verdict.orbit_rep)} (c={verdict.c}): "
                f"{status}; {verdict.reason}"
            )
        lines.append(
            f"decision: {self.decision.verdict} "
            f"(realizability {self.decision.realizability})"
        )
        if self.witness is not None:
            lines.append("")
            lines.append(self.witness.to_text())
        if self.witness_error is not None:
            lines.append(f"witness construction failed: {self.witness_error}")
        return "\n".join(lines) + "\n"


def analyze(
    graph: Graph,
    generators=(),
    *,
    want_witness: bool = False,
    order_bound: int = DEFAULT_GROUP_ORDER_BOUND,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
    search_cap: int = DEFAULT_SEARCH_CAP,
    cancel: CancelToken | None = None,
) -> AnalysisReport:
    """Run the full pipeline: components, holonomy action, decision, witness."""
    timing = {}
    t0 = time.monotonic()
    part = coherent_components(graph)
    timing["components_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    action = build_action(graph, part, generators, order_bound)
    timing["holonomy_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    decision = decide(action)
    timing["decision_s"] = time.monotonic() - t0

    alg = build_algebra(graph)
    report = AnalysisReport(
        graph=graph,
        partition=part,
        action=action,
        decision=decision,
        algebra_dimension=alg.dimension,
        timing=timing,
    )
    if want_witness and decision.verdict == "yes":
        t0 = time.monotonic()
        try:
            report.witness = build_witness(
                action,
                alg,
                entry_bound=entry_bound,
                search_cap=search_cap,
                cancel=cancel,
            )
        except (
            SeedSearchExhausted,
            WitnessRefused,
            WitnessAssemblyError,
            PreconditionViolation,
        ) as exc:  # reported, not raised: the decision stands
            report.witness_error = str(exc)
        timing["witness_s"] = time.monotonic() - t0
    return report


def quotient_dot(part: CoherentPartition) -> str:
    """Graphviz rendering of the quotient graph, loops included."""
    lines = ["graph quotient {"]
    for i, comp in enumerate(part.components):
        label = f"{component_label(i)} [{', '.join(comp)}]"
        lines.append(f'  "{component_label(i)}" [label="{label}"];')
    for i, j in part.quotient_edges:
        lines.append(f'  "{component_label(i)}" -- "{component_label(j)}";')
    for i, loop in enumerate(part.loops):
        if loop:
            lines.append(f'  "{component_label(i)}" -- "{component_label(i)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
