import itertools
import json
import subprocess
import sys

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
    EXIT_YES,
    main,
)
from anosovgraph.fixtures import all_loops_chain, four_pair_chain, loop_end_chain, pentagon
from anosovgraph.graphs import VertexPermutation, complete_bipartite, discrete_graph
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

    def test_stdin_input(self, run, tmp_path, monkeypatch):
        import io

        payload = json.dumps(pentagon().to_json_dict())
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, _ = run("analyze", "--graph", "-")
        assert code == EXIT_NO


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

    def test_seed_exhaustion_reports_bounds(self, run, tmp_path):
        # a yes-instance whose 5-point component has a mixed-cycle-type
        # stabilizer: no structured seed applies and the capped search runs dry
        from anosovgraph.graphs import Graph
        from anosovgraph.cli import EXIT_WITNESS

        g = Graph(
            ["a", "b", "c", "d", "e", "f", "g2", "h"],
            [("a", "b"), ("a", "c"), ("b", "c")],
        )
        path = write_graph(tmp_path, g)
        code, out, err = run(
            "analyze", "--graph", path, "--holonomy", "(d e)(f g2)",
            "--witness", "--json", "--search-cap", "500",
        )
        assert code == EXIT_WITNESS
        report = json.loads(out)
        assert report["decision"]["verdict"] == "yes"
        assert "500 candidates" in report["witness_error"]


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
        # oracle: Faddeev-LeVerrier on the dense 66x66 compound of the block-diagonal
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

    def test_non_unit_constant_invalid(self, run):
        code, out, _ = run("certify", "--poly", "x^2 - 2", "--c", "1")
        assert code == EXIT_NO
        assert "constant term" in out

    def test_malformed_poly(self, run):
        code, _, err = run("certify", "--poly", "x^^2")
        assert code == EXIT_PARSE


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
