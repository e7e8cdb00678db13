"""Command-line interface.

Exit codes partition outcomes: 0 the decision (or certificate) is positive, 1
negative, 2 undecided, 3 graph/input parse error, 4 invalid holonomy, 5 a
combinatorial bound was exceeded, 6 witness construction failed, 64 usage
error, 70 internal error. Canonical JSON goes to stdout; timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .analysis import _json_text, analyze, quotient_dot
from .errors import (
    BoundExceeded,
    GraphInputError,
    NotAnAutomorphism,
    PermutationError,
)
from .families import FamilySpec, generate
from .graphs import Graph, coherent_components, graph_from_json_dict, parse_graph, parse_holonomy_generators
from .graphs import _json_object
from .holonomy import DEFAULT_GROUP_ORDER_BOUND
from .hyperbolicity import certify_polynomial, char_poly, exterior_square_poly, is_integer_like
from .polynomials import format_polynomial, parse_polynomial

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 3
EXIT_HOLONOMY = 4
EXIT_BOUNDS = 5
EXIT_WITNESS = 6
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_graph_argument(path: str) -> tuple[Graph, tuple]:
    """Read a graph file (or '-' for stdin); returns (graph, embedded holonomy)."""
    try:
        if path == "-":
            text = sys.stdin.read().removeprefix("\ufeff")
        else:
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
    except OSError as exc:
        reason = exc.strerror or exc
        raise GraphInputError(f"cannot read graph file {path!r}: {reason}") from None
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"graph file {path!r} is not UTF-8 text: {exc}") from None
    data = _json_object(text)
    if data is None:
        return parse_graph(text), ()
    if not (isinstance(data, dict) and "graph" in data):
        return graph_from_json_dict(data), ()
    graph = graph_from_json_dict(data["graph"])
    holonomy = data.get("holonomy", "")
    if not isinstance(holonomy, str):
        raise GraphInputError('"holonomy" must be a string of cycles, e.g. "(a b);(c d)"')
    gens = parse_holonomy_generators(holonomy, graph) if holonomy else ()
    return graph, gens


def _finish(report) -> int:
    """Print the report's timings to stderr and return its exit code, 6 when the witness failed."""
    for key in sorted(report.timing):
        print(f"# {key}: {report.timing[key]:.4f}", file=sys.stderr)
    if report.witness_error is not None:
        print(f"witness construction failed: {report.witness_error}", file=sys.stderr)
        return EXIT_WITNESS
    return report.exit_code


def _analyze_arguments(args, want_witness: bool):
    """Read --graph, take --holonomy over any embedded generators, and run the pipeline."""
    graph, embedded = _read_graph_argument(args.graph)
    generators = (
        parse_holonomy_generators(args.holonomy, graph) if args.holonomy is not None else embedded
    )
    return analyze(
        graph,
        generators,
        want_witness=want_witness,
        order_bound=args.max_group_order,
    )


def cmd_analyze(args) -> int:
    report = _analyze_arguments(args, args.witness)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return _finish(report)


def cmd_quotient(args) -> int:
    graph, _ = _read_graph_argument(args.graph)
    part = coherent_components(graph)
    dot = quotient_dot(part)
    if args.dot:
        sys.stdout.write(dot)
        return EXIT_YES
    payload = {"partition": part.to_json_dict(), "dot": dot}
    sys.stdout.write(_json_text(payload))
    return EXIT_YES


def cmd_family(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None
    except ValueError:
        raise GraphInputError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    spec = FamilySpec(family=args.name, m=args.m, sizes=sizes, n=args.n, size=args.size)
    instance = generate(spec)
    payload = {
        "graph": instance.graph.to_json_dict(),
        "holonomy": ";".join(g.cycle_string() for g in instance.generators),
        "expected_dimension": instance.expected_dimension,
    }
    sys.stdout.write(_json_text(payload))
    return EXIT_YES


def cmd_witness(args) -> int:
    report = _analyze_arguments(args, want_witness=True)
    if report.decision.verdict != "yes":
        sys.stdout.write(report.to_json() if args.json else report.to_text())
    elif (witness := report.witness) is not None:
        sys.stdout.write(_json_text(witness.to_json_dict()) if args.json else witness.to_text() + "\n")
    return _finish(report)


def _parse_matrix_argument(text: str):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise GraphInputError(f"matrix must be JSON rows, e.g. [[2,1],[1,1]]: {exc}") from None
    if not (
        isinstance(data, list)
        and data
        and all(isinstance(row, list) and len(row) == len(data) for row in data)
        and all(type(x) is int for row in data for x in row)
    ):
        raise GraphInputError("matrix must be a non-empty square JSON list of integer rows")
    return data


def cmd_certify(args) -> int:
    """Certify --poly (degree at least 1) or --matrix at level --c. At --c 2 the certificate
    tests the exterior square only when p passes; a failing --poly still reports it, as the
    payload's compound_char_poly with no stage of its own, and --matrix reports null."""
    c = args.c
    if args.poly is not None:
        p = parse_polynomial(args.poly)
        if not p.is_monic:
            raise GraphInputError("certification expects a monic polynomial")
        if p.degree < c:
            raise GraphInputError(f"--c {c} needs a polynomial of degree at least {c}")
    else:
        rows = _parse_matrix_argument(args.matrix)
        if c == 2 and len(rows) < 2:
            raise GraphInputError("--c 2 needs a matrix of size at least 2")
        p = char_poly(rows)
    cert = certify_polynomial(p, c)
    record = cert.to_json_dict()
    if args.poly is not None and c == 2 and cert.compound_char_poly is None:
        record["compound_char_poly"] = list(exterior_square_poly(p).coefficients)
    integer_like = is_integer_like(p)
    payload = {
        "c": c,
        "char_poly": format_polynomial(cert.char_poly),
        "integer_like": integer_like,
        "certificate": record,
        "valid": cert.valid and integer_like,
        "reason": cert.failure if not cert.valid else (None if integer_like else "constant term is not a unit"),
    }
    if args.json:
        sys.stdout.write(_json_text(payload))
    else:
        status = "valid" if payload["valid"] else f"invalid ({payload['reason']})"
        sys.stdout.write(
            f"char poly: {payload['char_poly']}\n"
            f"integer-like: {integer_like}\n"
            f"{c}-hyperbolic certificate: {status}\n"
        )
    return EXIT_YES if payload["valid"] else EXIT_NO


def build_parser() -> _Parser:
    parser = _Parser(
        prog="anosovgraph",
        description=(
            "Decide whether the infra-nilmanifold of a graph-with-symmetry admits an "
            "Anosov diffeomorphism, and construct certified integer witnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, witness_flag=True):
        p.add_argument("--graph", required=True, help="graph file (JSON or text), or - for stdin")
        p.add_argument("--holonomy", default=None, help='generators, e.g. "(a b)(c d);(e f)"')
        p.add_argument("--json", action="store_true", help="canonical JSON on stdout")
        p.add_argument("--max-group-order", type=int, default=DEFAULT_GROUP_ORDER_BOUND)
        if witness_flag:
            p.add_argument("--witness", action="store_true", help="also construct a witness")

    p_analyze = sub.add_parser("analyze", help="full decision pipeline")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_quotient = sub.add_parser("quotient", help="coherent components and quotient graph")
    p_quotient.add_argument("--graph", required=True)
    p_quotient.add_argument("--dot", action="store_true", help="print raw DOT only")
    p_quotient.set_defaults(func=cmd_quotient)

    p_family = sub.add_parser("family", help="generate a parameterized family instance")
    p_family.add_argument("--name", required=True, choices=["I", "I-modified", "II", "II-Z4"])
    p_family.add_argument("--m", type=int, default=None)
    p_family.add_argument("--sizes", default=None, help="comma-separated, e.g. 2,2,3")
    p_family.add_argument("--n", type=int, default=None)
    p_family.add_argument("--size", type=int, default=3, help="component size for II/II-Z4")
    p_family.set_defaults(func=cmd_family)

    p_witness = sub.add_parser("witness", help="construct and print a certified witness")
    common(p_witness, witness_flag=False)
    p_witness.set_defaults(func=cmd_witness)

    p_certify = sub.add_parser("certify", help="certify a polynomial or integer matrix")
    group = p_certify.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help='human syntax, e.g. "x^2 - 3x + 1"')
    group.add_argument("--matrix", help="JSON rows, e.g. [[2,1],[1,1]]")
    p_certify.add_argument("--c", type=int, default=1, choices=[1, 2])
    p_certify.add_argument("--json", action="store_true")
    p_certify.set_defaults(func=cmd_certify)

    return parser


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built once per process; parsing a command line leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PermutationError, NotAnAutomorphism) as exc:
        print(f"holonomy error: {exc}", file=sys.stderr)
        return EXIT_HOLONOMY
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
