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
from .polynomials import _int_text_unlimited
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
    generator per container and a closure cycle per call. Here the Python
    work is paid per container, not per scalar:

    - Scalars are written through ``_SCALAR_TEXT``, a table from exact type
      to text function: ``str`` by the C ``encode_basestring_ascii``, ``int``
      by ``int.__repr__`` (the library's own choice), bool and None by their
      literals. A dict writes its scalar values through the table inline, so
      they do not recurse. Subclasses of str and int miss the table and are
      written as the library writes them.
    - A list or tuple whose items are all of one scalar type is joined in one
      call. The texts of an exact-int list are kept for the rest of the
      render, keyed by its entries, so a list written again (a witness
      report holds its polynomial three times) is converted to decimal once.
      Each row of a list or tuple of non-empty list or tuple rows whose cells
      are all of one scalar type (graph edges, quotient edges, the order,
      witness matrices) is joined in one expression too: one pass over the
      cells' types decides that path. Rows of exact ints that all have one
      width and hold a 0 (sparse witness matrix rows) are spliced instead:
      the library writes such a row as "[", then each entry on its own line
      at the row's indent plus two, separated by commas, then "]" at the
      row's indent, so the text of an all-zero row is built once per width
      and indent and each row's nonzero entries, found by
      ``itertools.compress``, replace their "0"s in it. Anything else in a
      list, such as a bool among ints or a ragged row of mixed cells, sends
      the list down the general path, one item at a time.
    - A dict takes its sorted keys and the text before each value from
      ``_dict_skeleton``, cached on the key tuple and the indent, since a
      report repeats a few key sets (one per orbit, part or component). The
      keys are quoted when an entry is built, and ``encode_basestring_ascii``
      refuses a non-str key with TypeError, so such a key set raises every
      time and is never cached. The cache is bounded because the key sets
      come from the payload: a caller rendering dicts keyed by data must not
      grow it without end.

    The helpers stay private: a per-layer trace wraps public functions, so a
    public recursive helper would record a span per JSON node instead of
    charging the encoding to the renderer. Ints of any size are written
    (`polynomials._int_text_unlimited`); the digit limit on parsing stays.
    """
    out = []
    with _int_text_unlimited():
        _write(payload, "\n", out, {})
    out.append("\n")
    return "".join(out)


_LITERALS = {True: "true", False: "false", None: "null"}
_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}
_ROW_TYPES = {list, tuple}


def _write(value, newline: str, out: list, texts: dict) -> None:
    """Append the JSON text of value, whose closing bracket sits after newline.

    texts maps each int list written so far, as a tuple, to its entries' texts.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, newline, out, texts)
    elif isinstance(value, dict):
        _write_dict(value, newline, out, texts)
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_list(items, newline: str, out: list, texts: dict) -> None:
    if not items:
        out.append("[]")
        return
    inner = newline + "  "
    separator = "," + inner
    types = set(map(type, items))
    if len(types) == 1 and (text := _SCALAR_TEXT.get(*types)):
        if int in types:
            key = tuple(items)
            if (cells := texts.get(key)) is None:
                cells = texts[key] = list(map(text, key))
        else:
            cells = map(text, items)
        out.append("[" + inner + separator.join(cells) + newline + "]")
        return
    if types <= _ROW_TYPES and all(items):
        cells = set(map(type, chain.from_iterable(items)))
        if len(cells) == 1 and (cell := cells.pop()) in _SCALAR_TEXT:
            out.append("[" + inner + separator.join(_rows_text(items, inner, cell)) + newline + "]")
            return
    lead = "[" + inner
    for item in items:
        out.append(lead)
        _write(item, inner, out, texts)
        lead = separator
    out.append(newline + "]")


def _rows_text(rows, newline: str, cell: type) -> list[str]:
    """Each row's text, closed after newline; the rows are non-empty, their cells of one scalar type."""
    if cell is int and len(set(map(len, rows))) == 1:
        return _int_rows_text(rows, newline)
    text = _SCALAR_TEXT[cell]
    inner = newline + "  "
    head, separator, tail = "[" + inner, "," + inner, newline + "]"
    return [head + separator.join(map(text, row)) + tail for row in rows]


@lru_cache(maxsize=64)  # a report has a few widths and depths; the texts are immutable
def _zero_row(width: int, newline: str) -> tuple[str, tuple[int, ...]]:
    """The text of an all-zero int row whose closing bracket sits after newline, and where each "0" is."""
    inner = newline + "  "
    separator = "," + inner
    text = "[" + inner + separator.join("0" * width) + newline + "]"
    start, stride = len(inner) + 1, len(separator) + 1
    return text, tuple(range(start, start + width * stride, stride))


def _int_rows_text(rows, newline: str) -> list[str]:
    """The text of each int row: a row holding a 0 is spliced into the all-zero row's text, any other joined."""
    text, zeros = _zero_row(len(rows[0]), newline)
    inner = newline + "  "
    head, separator, tail = "[" + inner, "," + inner, newline + "]"
    out = []
    for row in rows:
        if 0 not in row:
            out.append(head + separator.join(map(int.__repr__, row)) + tail)
            continue
        pieces, last = [], 0
        for at, value in zip(compress(zeros, row), compress(row, row)):
            pieces += text[last:at], str(value)
            last = at + 1
        pieces.append(text[last:])
        out.append("".join(pieces))
    return out


@lru_cache(maxsize=256)  # bounded: the key sets come from the payload
def _dict_skeleton(keys: tuple, newline: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The sorted keys, and the text before each one's value in a dict closed after newline.

    Keys of mixed types fail to sort and a non-str key fails to quote, both with TypeError.
    """
    ordered = tuple(sorted(keys))
    inner = newline + "  "
    leads = ["{" + inner] + ["," + inner] * (len(ordered) - 1)
    return ordered, tuple(lead + _quote(key) + ": " for lead, key in zip(leads, ordered))


def _write_dict(mapping, newline: str, out: list, texts: dict) -> None:
    if not mapping:
        out.append("{}")
        return
    keys, leads = _dict_skeleton(tuple(mapping), newline)
    inner = newline + "  "
    for key, lead in zip(keys, leads):
        value = mapping[key]
        text = _SCALAR_TEXT.get(type(value))
        if text is None:
            out.append(lead)
            _write(value, inner, out, texts)
        else:
            out.append(lead + text(value))
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
