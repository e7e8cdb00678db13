"""End-to-end analysis pipeline and report rendering.

Reports are deterministic: the canonical JSON contains no timestamps or
timings, so identical inputs serialize byte-for-byte identically. Wall-clock
timings live in a separate field that callers print to stderr.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _quote

from .errors import SeedSearchExhausted, WitnessAssemblyError, WitnessRefused
from .graphs import CoherentPartition, Graph, coherent_components, component_label
from .holonomy import DEFAULT_GROUP_ORDER_BOUND, HolonomyAction, build_action
from .repdecomp import Decision, decide
from .witness import Witness, build_witness


def _json_text(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing newline.

    Every JSON document the package writes goes through here. Its bytes are
    exactly those of the standard ``json`` module's ``dumps`` with
    ``sort_keys=True, indent=2`` plus a newline, for payloads of dicts with str
    keys, lists, tuples, str, int, bool and None. Any other key or value type
    raises TypeError instead of being converted. The library call is not used
    because an ``indent`` sends it to the pure-Python encoder, which makes a
    generator per container and a closure cycle per call; here strings go
    through the C ``encode_basestring_ascii`` and a list of plain ints or of
    strings is joined in one call.

    A list or tuple of equal-length, non-empty rows of exact ints (a witness
    matrix) is written in one go. The library writes such a row as "[", then
    each entry's ``int.__repr__`` on its own line at the row's indent plus
    two, separated by commas, then "]" at the row's indent; that text
    depends on the row only through its width, its indent and its entries.
    So the text of an all-zero row is built once per width and indent, and
    each row's nonzero entries, found by ``itertools.compress``, replace
    their "0"s in it; ``str`` is ``int.__repr__`` on exact ints. The first
    row is checked first, so lists of other items fall through at once; a
    bool, a ragged or empty row, or any other item sends the whole list
    down the general path, which gives the library's bytes for it. The rows
    are joined as the general path joins any list's items.

    The helpers stay private: a per-layer trace wraps public functions, so a
    public recursive helper would record a span per JSON node instead of
    charging the encoding to the renderer.
    """
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append the JSON text of value, whose closing bracket sits after newline."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, newline, out)
    elif isinstance(value, dict):
        _write_dict(value, newline, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_list(items, newline: str, out: list) -> None:
    if not items:
        out.append("[]")
        return
    inner = newline + "  "
    separator = "," + inner
    if _is_int_matrix(items):
        out.append("[" + inner + separator.join(_int_rows_text(items, inner)) + newline + "]")
        return
    types = set(map(type, items))
    if types == {int}:  # str is int.__repr__ on plain ints, and calls faster
        out.append("[" + inner + separator.join(map(str, items)) + newline + "]")
    elif types == {str}:
        out.append("[" + inner + separator.join(map(_quote, items)) + newline + "]")
    else:
        lead = "[" + inner
        for item in items:
            out.append(lead)
            _write(item, inner, out)
            lead = separator
        out.append(newline + "]")


_ROW_TYPES = {list, tuple}


def _is_int_matrix(items) -> bool:
    """True for equal-length, non-empty list or tuple rows of exact ints; the first row is tried first."""
    first = items[0]
    if type(first) not in _ROW_TYPES or not first or set(map(type, first)) != {int}:
        return False
    return (
        set(map(type, items)) <= _ROW_TYPES
        and set(map(len, items)) == {len(first)}
        and set(map(type, chain.from_iterable(items))) == {int}
    )


@lru_cache(maxsize=64)  # a report has a few widths and depths; the texts are immutable
def _zero_row(width: int, newline: str) -> tuple[str, tuple[int, ...]]:
    """The text of an all-zero int row whose closing bracket sits after newline, and where each "0" is."""
    inner = newline + "  "
    separator = "," + inner
    text = "[" + inner + separator.join("0" * width) + newline + "]"
    start, stride = len(inner) + 1, len(separator) + 1
    return text, tuple(range(start, start + width * stride, stride))


def _int_rows_text(rows, newline: str) -> list[str]:
    """The text of each int row: its nonzero entries spliced into the all-zero row's text."""
    text, zeros = _zero_row(len(rows[0]), newline)
    out = []
    for row in rows:
        pieces, last = [], 0
        for at, value in zip(compress(zeros, row), compress(row, row)):
            pieces += text[last:at], str(value)
            last = at + 1
        pieces.append(text[last:])
        out.append("".join(pieces))
    return out


def _write_dict(mapping, newline: str, out: list) -> None:
    if not mapping:
        out.append("{}")
        return
    inner = newline + "  "
    lead = "{" + inner
    for key in sorted(mapping):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        out.append(lead + _quote(key) + ": ")
        _write(mapping[key], inner, out)
        lead = "," + inner
    out.append(newline + "}")


@dataclass
class AnalysisReport:
    """Everything the pipeline produced for one input; the graph, partition and decision are the action's."""

    action: HolonomyAction
    witness: Witness | None = None
    witness_error: str | None = None
    timing: dict = field(default_factory=dict)

    @property
    def graph(self) -> Graph:
        return self.action.graph

    @property
    def partition(self) -> CoherentPartition:
        return self.action.partition

    @property
    def algebra_dimension(self) -> int:
        return self.graph.num_vertices + self.graph.num_edges

    @cached_property
    def decision(self) -> Decision:
        return decide(self.action)

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
        for i, (comp, has_loop) in enumerate(zip(part.components, part.loops)):
            loop = ", loop" if has_loop else ""
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
                f"orbit of {component_label(verdict.orbit.rep)} (c={verdict.orbit.c}): "
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
) -> AnalysisReport:
    """Run the full pipeline: components, holonomy action, decision, witness."""
    timing = {}
    t0 = time.monotonic()
    part = coherent_components(graph)
    timing["components_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    action = build_action(part, generators, order_bound)
    timing["holonomy_s"] = time.monotonic() - t0

    report = AnalysisReport(action=action, timing=timing)
    t0 = time.monotonic()
    decision = report.decision
    timing["decision_s"] = time.monotonic() - t0

    if want_witness and decision.verdict == "yes":
        t0 = time.monotonic()
        try:
            report.witness = build_witness(action)
        except (SeedSearchExhausted, WitnessRefused, WitnessAssemblyError) as exc:
            # reported, not raised: the decision stands
            report.witness_error = str(exc)
        timing["witness_s"] = time.monotonic() - t0
    return report


def quotient_dot(part: CoherentPartition) -> str:
    """Graphviz rendering of the quotient graph, loops included."""
    lines = ["graph quotient {"]
    for i, comp in enumerate(part.components):
        label = f"{component_label(i)} [{', '.join(comp)}]"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  "{component_label(i)}" [label="{label}"];')
    for i, j in part.quotient_edges:
        lines.append(f'  "{component_label(i)}" -- "{component_label(j)}";')
    for i, loop in enumerate(part.loops):
        if loop:
            lines.append(f'  "{component_label(i)}" -- "{component_label(i)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
