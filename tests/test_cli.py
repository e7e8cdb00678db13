import hashlib
import io
import itertools
import json
import re
import subprocess
import sys
import time

import pytest

import anosovgraph.analysis
import anosovgraph.cli as cli_module
from anosovgraph.cli import (
    EXIT_BOUNDS,
    EXIT_HOLONOMY,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    EXIT_WITNESS,
    EXIT_YES,
    main,
)
from anosovgraph.errors import GraphInputError, SeedSearchExhausted, WitnessAssemblyError, WitnessRefused
from anosovgraph.families import family_I
from anosovgraph.fixtures import all_loops_chain, four_pair_chain, loop_end_chain, pentagon
from anosovgraph.graphs import (
    Graph,
    VertexPermutation,
    complete_bipartite,
    complete_graph,
    discrete_graph,
    parse_graph,
)
from anosovgraph.hyperbolicity import char_poly
from anosovgraph.polynomials import IntPolynomial, companion_rows, format_polynomial


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write_graph(tmp_path, graph, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph.to_json_dict()))
    return str(path)


class TestAnalyze:
    def test_four_pair_chain_swap_is_no(self, run, tmp_path):
        path = write_graph(tmp_path, four_pair_chain())
        code, out, err = run(
            "analyze", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(c1 d1)(c2 d2)"
        )
        assert code == EXIT_NO
        assert "decision: no" in out

    def test_bipartite_with_witness(self, run, tmp_path):
        path = write_graph(tmp_path, complete_bipartite(3, 3))
        code, out, err = run(
            "analyze", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(a3 b3)",
            "--witness", "--json",
        )
        assert code == EXIT_YES
        report = json.loads(out)
        assert report["decision"]["verdict"] == "yes"
        assert len(report["witness"]["full_matrix"]) == 15

    def test_pentagon_no_holonomy_is_no(self, run, tmp_path):
        path = write_graph(tmp_path, pentagon())
        code, out, _ = run("analyze", "--graph", path)
        assert code == EXIT_NO
        assert "decision: no" in out

    def test_undecided_exit(self, run, tmp_path):
        path = write_graph(tmp_path, discrete_graph(4))
        code, out, _ = run("analyze", "--graph", path, "--holonomy", "(v1 v2);(v3 v4)")
        assert code == EXIT_UNDECIDED

    def test_parse_error_exit(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a"], "edges": [["a", "a"]]}')
        code, _, err = run("analyze", "--graph", str(path))
        assert code == EXIT_PARSE
        assert "input error" in err

    def test_missing_graph_file_exit(self, run, tmp_path):
        missing = str(tmp_path / "absent.json")
        for command in ("analyze", "quotient"):
            code, out, err = run(command, "--graph", missing)
            assert code == EXIT_PARSE
            assert out == ""
            assert "input error" in err and "absent.json" in err

    def test_graph_directory_exit(self, run, tmp_path):
        code, _, err = run("analyze", "--graph", str(tmp_path))
        assert code == EXIT_PARSE
        assert "input error" in err

    def test_internal_witness_fault_is_not_a_witness_error(self, run, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("inconsistent integer check")

        monkeypatch.setattr(anosovgraph.analysis, "build_witness", broken)
        graph = complete_bipartite(3, 3)
        swap = "(a1 b1)(a2 b2)(a3 b3)"
        path = write_graph(tmp_path, graph)
        code, out, err = run("analyze", "--graph", path, "--holonomy", swap, "--witness", "--json")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "internal error: inconsistent integer check" in err
        with pytest.raises(AssertionError):
            anosovgraph.analysis.analyze(
                graph, [VertexPermutation.from_cycles(swap, graph.vertices)], want_witness=True
            )

    def test_value_error_in_witness_stage_is_internal(self, run, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("inconsistent block shape")

        monkeypatch.setattr(anosovgraph.analysis, "build_witness", broken)
        path = write_graph(tmp_path, complete_bipartite(3, 3))
        code, out, err = run(
            "analyze", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--witness"
        )
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "internal error: inconsistent block shape" in err

    WITNESS_FAILURES = [
        SeedSearchExhausted("no seed candidate certified", candidates_tried=3),
        WitnessRefused("decision is 'no'"),
        WitnessAssemblyError("hyperbolicity", "root on the unit circle"),
    ]

    @pytest.mark.parametrize("failure", WITNESS_FAILURES, ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("command", ["analyze", "witness"])
    def test_witness_failure_exits_6(self, run, tmp_path, monkeypatch, failure, command):
        # analyze() reports these three as witness_error; main() never sees them
        def broken(*args, **kwargs):
            raise failure

        monkeypatch.setattr(anosovgraph.analysis, "build_witness", broken)
        path = write_graph(tmp_path, complete_bipartite(3, 3))
        argv = [command, "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json"]
        code, out, err = run(*argv, *(["--witness"] if command == "analyze" else []))
        assert code == EXIT_WITNESS
        assert f"witness construction failed: {failure}" in err
        if command == "analyze":
            report = json.loads(out)
            assert report["decision"]["verdict"] == "yes"
            assert report["witness_error"] == str(failure)
            assert "witness" not in report
        else:
            assert out == ""

    def test_invalid_holonomy_exit(self, run, tmp_path):
        path = write_graph(tmp_path, pentagon())
        # (a b) preserves the trivial order but is not an automorphism
        code, _, err = run("analyze", "--graph", path, "--holonomy", "(a b)")
        assert code == EXIT_HOLONOMY
        assert "holonomy error" in err

    def test_group_bound_exit(self, run, tmp_path):
        path = write_graph(tmp_path, pentagon())
        code, _, err = run(
            "analyze", "--graph", path, "--holonomy", "(a b c d e)", "--max-group-order", "3"
        )
        assert code == EXIT_BOUNDS

    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_group_bound_below_one_exits_on_trivial_holonomy(self, run, tmp_path, bound):
        path = write_graph(tmp_path, pentagon())
        code, out, err = run("analyze", "--graph", path, "--max-group-order", bound)
        assert code == EXIT_BOUNDS
        assert out == ""
        assert f"exceeds the bound {bound}" in err

    def test_deterministic_json(self, run, tmp_path):
        path = write_graph(tmp_path, complete_bipartite(3, 3))
        args = ("analyze", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == EXIT_YES
        assert out1 == out2

    def test_timing_on_stderr_not_stdout(self, run, tmp_path):
        path = write_graph(tmp_path, pentagon())
        _, out, err = run("analyze", "--graph", path, "--json")
        assert "components_s" not in out
        assert "components_s" in err

    @pytest.mark.parametrize(
        "graph, holonomy, exit_code",
        [
            (complete_bipartite(3, 3), "(a1 b1)(a2 b2)(a3 b3)", EXIT_YES),
            (pentagon(), None, EXIT_NO),
            (discrete_graph(4), "(v1 v2);(v3 v4)", EXIT_UNDECIDED),
            (complete_bipartite(3, 3), "(a1 b1)(a2 b2)(a3 b3)", EXIT_WITNESS),
        ],
        ids=["yes", "no", "undecided", "construction-failed"],
    )
    def test_witness_timing_on_stderr_on_every_path(
        self, run, tmp_path, monkeypatch, graph, holonomy, exit_code
    ):
        if exit_code == EXIT_WITNESS:
            def broken(*args, **kwargs):
                raise SeedSearchExhausted("no seed candidate certified", candidates_tried=1)

            monkeypatch.setattr(anosovgraph.analysis, "build_witness", broken)
        path = write_graph(tmp_path, graph)
        argv = ["witness", "--graph", path, *(["--holonomy", holonomy] if holonomy else [])]
        code, out, err = run(*argv, "--json")
        assert code == exit_code
        assert "components_s" not in out
        assert "# components_s: " in err and "# decision_s: " in err
        assert ("# witness_s: " in err) == (exit_code in (EXIT_YES, EXIT_WITNESS))
        if exit_code == EXIT_WITNESS:
            assert out == ""
            assert err.endswith("witness construction failed: no seed candidate certified\n")

    def test_stdin_input(self, run, tmp_path, monkeypatch):
        import io

        payload = json.dumps(pentagon().to_json_dict())
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, _ = run("analyze", "--graph", "-")
        assert code == EXIT_NO


class TestWitnessReportPins:
    """sha256 of witness reports, JSON and text; any change to their bytes fails here."""

    @pytest.mark.parametrize(
        "family_args, digest",
        [
            (
                ("--name", "I-modified", "--m", "4"),
                "952d89691db623bb40a7246f1a1486ff305ccab13de549aeb6a43a54f5adf8fc",
            ),
            (
                ("--name", "II", "--n", "9", "--size", "6"),
                "f62edcae7b8189d50743b86f9fd9179daa020b9ffdf29edaa98bd9be6c2251b3",
            ),
            (
                # degree 67 with a reciprocal gcd of degree 52: the certificate reaches the Sturm stage
                ("--name", "I", "--m", "5", "--sizes", "2,2,2,2,3"),
                "32aac6221e8248fa11b097934dc49c8a980e229024cfce00fc218ece94ff769d",
            ),
        ],
        ids=["I-modified-m4", "II-n9-s6", "I-m5"],
    )
    def test_family_report(self, run, tmp_path, family_args, digest):
        code, out, _ = run("family", *family_args)
        assert code == EXIT_YES
        path = tmp_path / "family.json"
        path.write_text(out)
        code, out, _ = run("analyze", "--graph", str(path), "--json", "--witness")
        assert code == EXIT_YES
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, digest",
        [
            (("witness",), "f0d0efeb1856f98c27de2f9875f71d77a13d9c659065d78ee4385ae739d16b4c"),
            (("analyze", "--witness"), "62bb6ab282af1cc360c27fe90a8b147a90b860e97783e0c65808b029be66f217"),
        ],
        ids=["witness", "analyze-witness"],
    )
    def test_family_text_report(self, run, tmp_path, command, digest):
        # the text renderer of the witness, on I-modified m=3
        code, out, _ = run("family", "--name", "I-modified", "--m", "3")
        assert code == EXIT_YES
        path = tmp_path / "family.json"
        path.write_text(out)
        code, out, _ = run(*command, "--graph", str(path))
        assert code == EXIT_YES
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_discrete_double_swap_report(self, run, tmp_path):
        path = write_graph(tmp_path, discrete_graph(4))
        code, out, _ = run(
            "analyze", "--graph", path, "--holonomy", "(v1 v2)(v3 v4)", "--json", "--witness"
        )
        assert code == EXIT_YES
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "6fa41d2dc1c979e304d79a87dad311e9d2707e8fdd89552b0ef559fe40e27535"
        )

    def test_discrete_16_double_swap_report(self, run, tmp_path):
        # a structured seed whose float root moduli do not settle; one orbit takes exponent 1
        path = write_graph(tmp_path, discrete_graph(16))
        code, out, _ = run(
            "analyze", "--graph", path, "--holonomy", "(v1 v2)(v3 v4)", "--json", "--witness"
        )
        assert code == EXIT_YES
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "d7c0dbb818ac82e8a22e755d14972347387d2a25f4591122c5390ad0f2312606"
        )

    def test_discrete_mixed_cycles_structured_seed_report(self, run, tmp_path):
        # cycle lengths 2, 1, 2: no lifted seed, so the block is `structured_seed`
        path = write_graph(tmp_path, discrete_graph(5))
        code, out, _ = run(
            "analyze", "--graph", path, "--holonomy", "(v1 v2)(v4 v5)", "--json", "--witness"
        )
        assert code == EXIT_YES
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "f3a64c2fd8d0f10bae4716ce4204a8978b72971323109a570dc72209573c5028"
        )

    def test_bipartite_lifted_seed_report(self, run, tmp_path):
        # the stabilizer's double swaps give a lifted seed, and two group
        # elements carry part A to part B: the report names the first
        path = write_graph(tmp_path, complete_bipartite(6, 6))
        holonomy = (
            "(a1 b1)(a2 b2)(a3 b3)(a4 b4)(a5 b5)(a6 b6);"
            "(a1 a2)(a3 a4)(a5 a6)(b1 b2)(b3 b4)(b5 b6)"
        )
        code, out, _ = run("analyze", "--graph", path, "--holonomy", holonomy, "--json", "--witness")
        assert code == EXIT_YES
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "aa8f7ad0d09d819c7c5534ee5f31c4c18cfc58e1dabc52f0dfe9f621f134337d"
        )

    def test_path_conjugators_from_cosets_of_two_report(self, run, tmp_path):
        # a path A-X-Y-B of discrete classes, its ends and its middle swapped:
        # two orbits of two members whose stabilizer has order 2, so each
        # conjugator is the first of the two group elements carrying the
        # representative to the other member
        a, x, y, b = ([f"{s}{i}" for i in range(1, k + 1)] for s, k in (("a", 4), ("x", 6), ("y", 6), ("b", 4)))
        graph = Graph(a + x + y + b, [(u, v) for p, q in ((a, x), (x, y), (y, b)) for u in p for v in q])
        holonomy = (
            "(a1 b1)(a2 b2)(a3 b3)(a4 b4)(x1 y1)(x2 y2)(x3 y3)(x4 y4)(x5 y5)(x6 y6);"
            "(a1 a2)(a3 a4)(b1 b2)(b3 b4)(x1 x2)(x3 x4)(x5 x6)(y1 y2)(y3 y4)(y5 y6)"
        )
        path = write_graph(tmp_path, graph)
        code, out, _ = run("analyze", "--graph", path, "--holonomy", holonomy, "--json", "--witness")
        assert code == EXIT_YES
        assert [len(o["members"]) for o in json.loads(out)["holonomy"]["orbits"]] == [2, 2]
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "7f161f8b1c69c603ce381b0f04b5df46b23eb3e6fa8a410ed0db44f54ee9fade"
        )

    @pytest.mark.parametrize(
        "n, holonomy, digest",
        [
            # a catalog_polynomials(4) seed lifted along four 2-cycles (d = 2)
            (8, "(v1 v2)(v3 v4)(v5 v6)(v7 v8)", "e2391254ad5fd209364a3d3ab0fb42ae3cf214d53fcc7e43fb0cd1bf4a821358"),
            # the cat map lifted along two 3-cycles (d = 3)
            (6, "(v1 v2 v3)(v4 v5 v6)", "e8888b334314149ca449e723d222f221671f1f69465ef3467653193961122936"),
            # one orbit whose seed is a companion matrix of degree 64
            (64, None, "c1a6b0e6a09d183a171d19c7e58b8c892e2b40d084dff2cd6d44ea22d85fb0d0"),
        ],
        ids=["discrete-8-four-swaps", "discrete-6-two-3-cycles", "discrete-64-trivial"],
    )
    def test_discrete_catalog_seed_report(self, run, tmp_path, n, holonomy, digest):
        path = write_graph(tmp_path, discrete_graph(n))
        args = ("--holonomy", holonomy) if holonomy else ()
        code, out, _ = run("analyze", "--graph", path, *args, "--json", "--witness")
        assert code == EXIT_YES
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWitnessAboveTheDigitLimit:
    """Family I m=4 sizes (2,3,4,4): exponents (1, 9, 57, 669) and a witness
    polynomial with 25,266-bit coefficients, beyond the 4300 decimal digits
    that ``str()`` of an int allows by default. Every report prints them, and
    the interpreter's limit is back in place afterwards."""

    @pytest.fixture(scope="class")
    def report(self):
        inst = family_I(4, (2, 3, 4, 4))
        return anosovgraph.analysis.analyze(inst.graph, inst.generators, want_witness=True)

    @pytest.mark.parametrize(
        "command, digest",
        [
            (("analyze", "--json", "--witness"), "f0e8c1a15cf75e47b1e221eeaaca99088605e4f4f88b10a41185c78e18b34a4b"),
            (("witness", "--json"), "4a3c260e29eaf291c84b5495b8956ea1edbaea1815b8f4196de55c21bd28998d"),
            (("witness",), "126e363c034b38eace44382f58fc4e3d29b9a1910893bd54b1cdc97257720f9d"),
        ],
        ids=["analyze-json", "witness-json", "witness-text"],
    )
    def test_report_prints_every_coefficient(self, run, tmp_path, report, command, digest):
        expected = list(report.witness.certificate.char_poly.coefficients)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit before 3.10.7
        before = limit()
        if before:
            with pytest.raises(ValueError, match="Exceeds the limit"):
                str(max(expected, key=abs))
        code, out, _ = run("family", "--name", "I", "--m", "4", "--sizes", "2,3,4,4")
        path = tmp_path / "family.json"
        path.write_text(out)
        code, out, _ = run(*command, "--graph", str(path))
        assert code == EXIT_YES
        assert limit() == before
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if "--json" in command:
            if before:
                sys.set_int_max_str_digits(0)
            try:
                payload = json.loads(out)
            finally:
                if before:
                    sys.set_int_max_str_digits(before)
            witness = payload.get("witness", payload)
            assert witness["full_char_poly"] == witness["certificate"]["char_poly"] == expected


class TestCertifiedSeedsAboveTwelvePoints:
    """Yes instances whose seed is `structured_seed`, certified exactly, while
    the float root moduli that steer the exponents do not settle: from 16
    points the Aberth steps stall above the stop rule, and at 48 points
    Horner's rule overflows and the bounds come out NaN. A single orbit, and
    any orbit whose bounds cannot steer, takes exponent 1, so each run exits 0."""

    CASES = [
        ("discrete", 16, "(v1 v2)(v3 v4)"),
        ("discrete", 20, "(v1 v2)(v3 v4)"),
        ("discrete", 48, "(v1 v2)(v3 v4)"),
        ("discrete", 16, "(v1 v2)(v3 v4)(v5 v6)"),
        ("discrete", 18, "(v1 v2 v3)(v4 v5 v6)"),
        ("discrete", 20, "(v1 v2 v3 v4)(v5 v6 v7 v8)"),
        ("complete", 16, "(v1 v2)(v3 v4)(v5 v6)(v7 v8)"),
    ]

    @pytest.mark.parametrize("kind, n, holonomy", CASES, ids=[f"{k} {n} {h}" for k, n, h in CASES])
    def test_witness_exits_0(self, run, tmp_path, kind, n, holonomy):
        graph = (discrete_graph if kind == "discrete" else complete_graph)(n)
        argv = ["analyze", "--graph", write_graph(tmp_path, graph), "--holonomy", holonomy]
        code, out, _ = run(*argv, "--json", "--witness")
        assert code == EXIT_YES
        witness = json.loads(out)["witness"]
        assert witness["certificate"]["valid"] is True
        (block,) = witness["blocks"]
        assert block["exponent"] == 1
        # the block polynomial is read off power sums; the dense one of the V-matrix must agree
        assert char_poly(witness["v_matrix"]).coefficients == tuple(witness["v_char_poly"])

    def test_overflowed_bounds_of_two_orbits_exit_0(self, run, tmp_path):
        # discrete v1..v40 beside the complete t1 t2 t3: the bounds that would
        # steer the second orbit's exponent overflow, so it takes exponent 1
        vertices = [f"v{i}" for i in range(1, 41)] + ["t1", "t2", "t3"]
        graph = Graph(vertices, [("t1", "t2"), ("t1", "t3"), ("t2", "t3")])
        argv = ["analyze", "--graph", write_graph(tmp_path, graph), "--holonomy", "(v1 v2)(v3 v4)"]
        code, out, _ = run(*argv, "--json", "--witness")
        assert code == EXIT_YES
        witness = json.loads(out)["witness"]
        assert witness["certificate"]["valid"] is True
        assert [block["exponent"] for block in witness["blocks"]] == [1, 1]


class TestDecisionReportPins:
    """sha256 of the text and JSON reports that render orbit verdicts and unit-circle analyses."""

    @pytest.mark.parametrize(
        "graph, holonomy, exit_code, text_digest, json_digest",
        [
            (
                complete_graph(2),
                None,
                EXIT_NO,
                "bf1d913eda6f7b5373442f9b6cd3bedc5fa9d5d8be92e04565c0fc2062c58211",
                "f701c8646f86c246b52e11ce33480beb8a9ffec1d93204704ec3c88ac76d363b",
            ),
            (
                four_pair_chain(),
                "(a1 b1)(a2 b2)(c1 d1)(c2 d2)",
                EXIT_NO,
                "c275d2141f1e9a8291dd41f00c3e8821e8613349a9d24e7365fa1767ebfc9eb4",
                "324486e96f9379f4e7084fee88943fd6f97f479e2f2dbddcf11af5cd8683e6a3",
            ),
            (
                discrete_graph(4),
                "(v1 v2);(v3 v4)",
                EXIT_UNDECIDED,
                "1a6248266b6b674a116c34f1eba7b393625e1487a859d56724cc70a77c444ba3",
                "3c671b8a568109844f7d4c7ff8f148ca2af54d4bbe6c648c1c767f59aa68a9e7",
            ),
            (
                discrete_graph(10),
                "(v1 v2 v3 v4 v5)(v6 v7 v8 v9 v10)",
                EXIT_YES,
                "c1de636416861476e226a44f28ce212ea02a0f24e3399ba1f2c27bfff47a504c",
                "1fd3f4a5d36ef2d91de9acf57ede538825b978ba60a17761966d36ada7c94552",
            ),
        ],
        ids=[
            "K2-trivial-fails",
            "four-pair-chain-swap-no",
            "discrete-v4-undecided",
            "discrete-v10-two-5-cycles-yes",
        ],
    )
    def test_analyze_report(self, run, tmp_path, graph, holonomy, exit_code, text_digest, json_digest):
        path = write_graph(tmp_path, graph)
        argv = ["analyze", "--graph", path, *(["--holonomy", holonomy] if holonomy else [])]
        for extra, digest in (((), text_digest), (("--json",), json_digest)):
            code, out, _ = run(*argv, *extra)
            assert code == exit_code
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_symmetric_group_on_both_sides_report(self, run, tmp_path):
        # S6 acting diagonally on K6,6, order 720: both sides are one-member
        # orbits whose stabilizer is the whole group, which is not cyclic
        path = write_graph(tmp_path, complete_bipartite(6, 6))
        holonomy = "(a1 a2)(b1 b2);(a1 a2 a3 a4 a5 a6)(b1 b2 b3 b4 b5 b6)"
        code, out, _ = run("analyze", "--graph", path, "--holonomy", holonomy, "--json")
        assert code == EXIT_UNDECIDED
        assert json.loads(out)["holonomy"]["order"] == 720
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "774269e9fab51c2a2e94e886de6b0844a9a4434bb68229810833b6108055db0e"
        )

    @pytest.mark.parametrize(
        "poly, exit_code, text_digest, json_digest",
        [
            (
                "x^2 + 2x + 1",
                EXIT_NO,
                "fac5b92d5fb047e4a28862d14c5b5686ba80a4e38eb7563836782fe09cd90362",
                "059691ee2694b2b01582b43bac3abb54d6d187626437c593834dbaae7661226a",
            ),
            (
                "x^3 - x^2 - 2x + 1",
                EXIT_YES,
                "67a4d214e7c75a8d90963a596d6844e15461905ba00eeceaedd8c07cef78720c",
                "b4fe07974347817ce8d17069568f0c5cb1dc751ac7006a3bb02af7931ff6b5b1",
            ),
            (
                "x^2 - 3x + 1",
                EXIT_YES,
                "78afd79d35641e91922dd51a073a3cedc8393f8ad9f787eb08b334837e5991f1",
                "33a207aab6aa8aa5ab8fe15b0162b44f2566a48f68d10f9079370b4b1dafb02b",
            ),
            (
                "x^4 + x^3 + x^2 + x + 1",
                EXIT_NO,
                "610f818d049915f62af0f0d2183668ee673eca52dfcf373c98cdae0af557f1a2",
                "5120ef1323233ebd9aea142b6918eaa891d3e10b5e413ea43dcc8d475784ccd6",
            ),
        ],
        ids=["endpoints", "reciprocal-gcd", "sturm-no-root", "sturm-two-roots"],
    )
    def test_certify_report(self, run, poly, exit_code, text_digest, json_digest):
        for extra, digest in (((), text_digest), (("--json",), json_digest)):
            code, out, _ = run("certify", "--poly", poly, *extra)
            assert code == exit_code
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCanonicalOutput:
    """Every JSON-emitting command prints the library encoder's canonical bytes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--graph", "{bipartite}", "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json"),
            ("analyze", "--graph", "{bipartite}", "--holonomy", "(a1 b1)(a2 b2)(a3 b3)",
             "--json", "--witness"),
            ("analyze", "--graph", "{accented}", "--holonomy", "(é1 é2)", "--json", "--witness"),
            ("witness", "--graph", "{bipartite}", "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json"),
            ("certify", "--poly", "x^3 - x^2 - 2x + 1", "--c", "2", "--json"),
            ("certify", "--matrix", "[[2,1],[1,1]]", "--c", "2", "--json"),
            ("quotient", "--graph", "{bipartite}"),
            ("family", "--name", "I", "--m", "3", "--sizes", "2,2,3"),
        ],
        ids=["analyze", "analyze-witness", "analyze-non-ascii", "witness", "certify-poly",
             "certify-matrix", "quotient", "family"],
    )
    def test_output_is_the_encoder_canonical_form(self, run, tmp_path, argv):
        paths = {
            "bipartite": write_graph(tmp_path, complete_bipartite(3, 3), "bipartite.json"),
            "accented": write_graph(tmp_path, Graph(["é1", "é2", "z"], []), "accented.json"),
        }
        _, out, _ = run(*(arg.format(**paths) for arg in argv))
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestQuotient:
    def test_loop_end_chain_dot(self, run, tmp_path):
        path = write_graph(tmp_path, loop_end_chain())
        code, out, _ = run("quotient", "--graph", path, "--dot")
        assert code == EXIT_YES
        assert out.count("--") == 3  # lambda1-lambda3, lambda2-lambda3, loop at lambda2
        assert '"lambda_2" -- "lambda_2"' in out

    def test_all_loops_chain(self, run, tmp_path):
        path = write_graph(tmp_path, all_loops_chain())
        code, out, _ = run("quotient", "--graph", path, "--dot")
        loops = [line for line in out.splitlines() if line.count("lambda_") == 2 and "--" in line]
        self_loops = [l for l in loops if l.split("--")[0].strip() == l.split("--")[1].strip().rstrip(";")]
        assert len(self_loops) == 3

    def test_dot_escapes_quotes_and_backslashes_in_labels(self, run, tmp_path):
        g = Graph(['a"x', "b\\y", "c"], [('a"x', "b\\y")])
        path = write_graph(tmp_path, g)
        code, out, _ = run("quotient", "--graph", path, "--dot")
        assert code == EXIT_YES
        assert '  "lambda_1" [label="lambda_1 [c]"];' in out.splitlines()
        assert '  "lambda_2" [label="lambda_2 [a\\"x, b\\\\y]"];' in out.splitlines()
        # every line is a sequence of well-formed DOT strings and unquoted text
        quoted = r'"(?:[^"\\]|\\.)*"'
        assert all(re.fullmatch(rf'(?:{quoted}|[^"\\])*', line) for line in out.splitlines())

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "text", ['{"vertices": ["a", "b"], "edges": [["a", "b"]]}', "a b\n--\na b\n"], ids=["json", "text"]
    )
    def test_byte_order_mark_is_dropped(self, run, tmp_path, monkeypatch, source, text):
        def quotient(content):
            if source == "stdin":
                monkeypatch.setattr(sys, "stdin", io.StringIO(content))
                return run("quotient", "--graph", "-")
            path = tmp_path / "graph"
            path.write_bytes(content.encode("utf-8"))
            return run("quotient", "--graph", str(path))

        plain = quotient(text)
        assert plain[0] == EXIT_YES and '"a"' in plain[1]
        assert quotient("\ufeff" + text) == plain

    def test_discrete_graph_isolated_nodes(self, run, tmp_path):
        path = write_graph(tmp_path, discrete_graph(3))
        code, out, _ = run("quotient", "--graph", path, "--dot")
        assert code == EXIT_YES
        assert "--" not in out.replace("graph quotient {", "")

    def test_json_payload(self, run, tmp_path):
        path = write_graph(tmp_path, loop_end_chain())
        code, out, _ = run("quotient", "--graph", path)
        payload = json.loads(out)
        assert payload["partition"]["components"][1]["loop"] is True
        assert "dot" in payload


class TestFamily:
    def test_family_emits_composable_json(self, run, tmp_path):
        code, out, _ = run("family", "--name", "I", "--m", "3", "--sizes", "2,2,3")
        assert code == EXIT_YES
        payload = json.loads(out)
        assert payload["expected_dimension"] == 43
        # composable: analyze reads the embedded holonomy
        path = tmp_path / "family.json"
        path.write_text(out)
        code2, out2, _ = run("analyze", "--graph", str(path))
        assert code2 == EXIT_YES

    def test_family_II_n4_rejected(self, run):
        code, _, err = run("family", "--name", "II", "--n", "4")
        assert code == EXIT_PARSE
        assert "can not be realized as a quotient graph" in err

    def test_family_II_z4(self, run):
        code, out, _ = run("family", "--name", "II-Z4", "--size", "3")
        assert json.loads(out)["expected_dimension"] == 60

    def test_usage_error_code(self, run):
        code, _, _ = run("family", "--name", "XXX")
        assert code == EXIT_USAGE


class TestWitnessCommand:
    def test_witness_text(self, run, tmp_path):
        path = write_graph(tmp_path, complete_bipartite(3, 3))
        code, out, _ = run("witness", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(a3 b3)")
        assert code == EXIT_YES
        assert "bracket preservation" in out

    def test_witness_refuses_no_instance(self, run, tmp_path):
        path = write_graph(tmp_path, four_pair_chain())
        code, out, _ = run(
            "witness", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(c1 d1)(c2 d2)"
        )
        assert code == EXIT_NO

    def test_mixed_cycle_stabilizer_gets_witness(self, run, tmp_path):
        # a yes-instance whose 5-point component has the mixed cycle type
        # (2, 2, 1) under its stabilizer: no lifted catalog seed applies and
        # the structured candidate certifies
        from anosovgraph.graphs import Graph
        from anosovgraph.cli import EXIT_USAGE

        g = Graph(
            ["a", "b", "c", "d", "e", "f", "g2", "h"],
            [("a", "b"), ("a", "c"), ("b", "c")],
        )
        path = write_graph(tmp_path, g)
        args = ["analyze", "--graph", path, "--holonomy", "(d e)(f g2)", "--witness", "--json"]
        code, out, _ = run(*args)
        assert code == EXIT_YES
        report = json.loads(out)
        assert report["decision"]["verdict"] == "yes"
        assert report["witness"]["certificate"]["valid"] is True
        code, _, _ = run(*args, "--search-cap", "500")
        assert code == EXIT_USAGE


class TestCertify:
    def test_poly_valid(self, run):
        code, out, _ = run("certify", "--poly", "x^2-3x+1", "--c", "1")
        assert code == EXIT_YES
        assert "valid" in out

    def test_cat_map_c2_invalid_with_reason(self, run):
        code, out, _ = run("certify", "--matrix", "[[2,1],[1,1]]", "--c", "2")
        assert code == EXIT_NO
        assert "pair product on unit circle" in out

    def test_cubic_c2_valid_json(self, run):
        code, out, _ = run("certify", "--poly", "x^3 - x^2 - 2x + 1", "--c", "2", "--json")
        assert code == EXIT_YES
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["certificate"]["compound_char_poly"] == [-1, -1, 2, 1]

    def test_degree_12_product_c2_matches_dense_compound(self, run):
        # four hyperbolic cubics; no eigenvalue and no pair product on the unit circle
        cubics = [(-1, -3, 0, 1), (-1, -4, 0, 1), (1, -5, 0, 1), (-1, -1, 0, 1)]
        poly = IntPolynomial([1])
        blocks = []
        for coeffs in cubics:
            poly = poly * IntPolynomial(coeffs)
            blocks.append(companion_rows(IntPolynomial(coeffs)))
        # oracle: char_poly of the dense 66x66 compound of the block-diagonal
        # companion matrix, whose char poly is poly
        n = 12
        rows = [[0] * n for _ in range(n)]
        for b, block in enumerate(blocks):
            for i, j in itertools.product(range(3), repeat=2):
                rows[3 * b + i][3 * b + j] = block[i][j]
        pairs = list(itertools.combinations(range(n), 2))
        compound = [
            [rows[i][k] * rows[j][l] - rows[i][l] * rows[j][k] for (k, l) in pairs]
            for (i, j) in pairs
        ]
        code, out, _ = run("certify", "--poly", format_polynomial(poly), "--c", "2", "--json")
        assert code == EXIT_YES
        payload = json.loads(out)
        assert payload["certificate"]["char_poly"] == list(poly.coefficients)
        assert payload["certificate"]["compound_char_poly"] == list(char_poly(compound).coefficients)
        assert len(payload["certificate"]["compound_char_poly"]) == 67

    def test_poly_c2_failing_first_stage_keeps_compound(self, run):
        # (x - 1)^2 fails on p itself; the given compound x - 1 is still reported
        code, out, _ = run("certify", "--poly", "x^2 - 2x + 1", "--c", "2", "--json")
        assert code == EXIT_NO
        payload = json.loads(out)
        assert payload["certificate"]["failure"] == "eigenvalue on unit circle"
        assert [s["label"] for s in payload["certificate"]["stages"]] == ["char_poly"]
        assert payload["certificate"]["compound_char_poly"] == [-1, 1]

    def test_matrix_c2_failing_first_stage_reports_null_compound(self, run):
        # unlike --poly, --matrix reports only what the certificate tested
        code, out, _ = run("certify", "--matrix", "[[1,0],[0,1]]", "--c", "2", "--json")
        assert code == EXIT_NO
        payload = json.loads(out)
        assert payload["certificate"]["failure"] == "eigenvalue on unit circle"
        assert [s["label"] for s in payload["certificate"]["stages"]] == ["char_poly"]
        assert payload["certificate"]["compound_char_poly"] is None

    def test_non_unit_constant_invalid(self, run):
        code, out, _ = run("certify", "--poly", "x^2 - 2", "--c", "1")
        assert code == EXIT_NO
        assert "constant term" in out

    def test_malformed_poly(self, run):
        code, _, err = run("certify", "--poly", "x^^2")
        assert code == EXIT_PARSE

    def test_huge_exponent_exits_bounds(self, run):
        start = time.perf_counter()
        code, out, err = run("certify", "--poly", "x^1000000000000 + 1")
        assert time.perf_counter() - start < 1  # refused before a dense list is built
        assert code == EXIT_BOUNDS
        assert out == ""
        assert err == "bound exceeded: exponent 1000000000000 exceeds the bound 10000\n"

    def test_exponent_beyond_int_conversion_exits_bounds(self, run):
        code, out, err = run("certify", "--poly", "x^" + "9" * 5000 + " + 1")
        assert code == EXIT_BOUNDS
        assert out == ""
        assert err == "bound exceeded: exponent of 5000 digits exceeds the bound 10000\n"

    def test_stray_star_exits_3(self, run):
        # with the `*` dropped this would read, and certify, x^2 - x + 4
        code, out, err = run("certify", "--poly", "x^2 + 3*-x + 1")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "input error: '*' must join a coefficient to x\n"


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv, file_bytes",
        [
            pytest.param(["certify", "--matrix", "[[null]]"], None, id="matrix-null"),
            pytest.param(["certify", "--matrix", "[1,2]"], None, id="matrix-flat"),
            pytest.param(["certify", "--matrix", "[[1,2]]"], None, id="matrix-not-square"),
            pytest.param(["certify", "--matrix", "[[true]]"], None, id="matrix-bool"),
            pytest.param(["certify", "--matrix", "[[2]]", "--c", "2"], None, id="matrix-1x1-c2"),
            pytest.param(["certify", "--poly", "x", "--c", "2"], None, id="poly-degree-1-c2"),
            pytest.param(["certify", "--poly", "1"], None, id="poly-degree-0"),
            pytest.param(["certify", "--poly", "x + " + "1" * 5000], None, id="poly-long-number"),
            pytest.param(["family", "--name", "I", "--m", "2", "--sizes", "2,x"], None, id="sizes"),
            pytest.param(
                ["analyze", "--graph", "FILE"],
                b'{"graph": {"vertices": ["a"], "edges": []}, "holonomy": 5}',
                id="holonomy-not-string",
            ),
            pytest.param(
                ["analyze", "--graph", "FILE"],
                b'{"vertices": [' + b"1" * 5000 + b'], "edges": []}',
                id="json-long-number",
            ),
            pytest.param(["analyze", "--graph", "FILE", "--witness"], b"--\n", id="empty-graph-text"),
            pytest.param(
                ["analyze", "--graph", "FILE", "--witness"],
                b'{"vertices": [], "edges": []}',
                id="empty-graph-json",
            ),
            pytest.param(
                ["analyze", "--graph", "FILE"],
                b'{"graph": {"vertices": [], "edges": []}, "holonomy": ""}',
                id="empty-graph-family-envelope",
            ),
            pytest.param(["quotient", "--graph", "FILE"], b"\xff\xfe", id="graph-not-utf8"),
            pytest.param(
                ["analyze", "--graph", "FILE"],
                b'{"vertices": [1, 2], "edges": []}',
                id="vertex-label-not-string",
            ),
            pytest.param(
                ["quotient", "--graph", "FILE"],
                b'{"vertices": ["1", "2"], "edges": [[1, "2"]]}',
                id="edge-endpoint-not-string",
            ),
        ],
    )
    def test_malformed_input_exits_3(self, run, tmp_path, argv, file_bytes):
        if file_bytes is not None:
            path = tmp_path / "input"
            path.write_bytes(file_bytes)
            argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run(*argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("input error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vertices": ["a"], "edges": []', "invalid JSON: Expecting ',' delimiter: line 1 column 32 (char 31)"),
            (' \n{"vertices": ["a"], "edges": []} x', "invalid JSON: Extra data: line 2 column 34 (char 35)"),
            ('{"vertices": [' + "1" * 5000 + '], "edges": []}', "invalid JSON: Exceeds the limit (4300 digits)"),
            ('{"graph": {"vertices": ["a"], "edges": []', "invalid JSON: Expecting ',' delimiter"),
        ],
        ids=["truncated", "trailing-data", "long-number", "truncated-envelope"],
    )
    def test_json_graph_errors_match_parse_graph(self, run, tmp_path, text, message):
        # the CLI and parse_graph decode JSON input through the same helper, with one message
        path = tmp_path / "input"
        path.write_text(text)
        with pytest.raises(GraphInputError) as exc:
            parse_graph(text)
        assert str(exc.value).startswith(message)
        assert run("analyze", "--graph", str(path)) == (EXIT_PARSE, "", f"input error: {exc.value}\n")


class TestParserReuse:
    def test_one_process_matches_fresh_processes(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, complete_bipartite(3, 3))
        analyze = ["analyze", "--graph", path, "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json", "--witness"]
        runs = [
            analyze,
            ["certify", "--poly", "x^3 - x^2 - 2x + 1", "--c", "2", "--json"],
            ["family", "--name", "XXX"],
            analyze,
        ]
        built = []
        real_build = cli_module.build_parser

        def counting_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli_module, "build_parser", counting_build)
        cli_module._parser.cache_clear()
        in_process = []
        for argv in runs:
            code = main(list(argv))
            in_process.append((code, capsys.readouterr().out))
        assert len(built) == 1
        fresh = []
        for argv in runs:
            done = subprocess.run([sys.executable, "-m", "anosovgraph", *argv], capture_output=True, text=True)
            fresh.append((done.returncode, done.stdout))
        assert in_process == fresh
        assert [code for code, _ in fresh] == [EXIT_YES, EXIT_YES, EXIT_USAGE, EXIT_YES]


class TestSubprocessEntry:
    def test_module_invocation_byte_identical(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(complete_bipartite(3, 3).to_json_dict()))
        argv = [
            sys.executable, "-m", "anosovgraph", "analyze",
            "--graph", str(path), "--holonomy", "(a1 b1)(a2 b2)(a3 b3)", "--json",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        json.loads(first.stdout)
