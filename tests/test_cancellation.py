"""The active cancellation token: its scope, and the stages of a witness run that poll it.

`with token:` makes a `CancelToken` the active one in the current context
until the block ends; every long-running kernel polls it through
`errors.checkpoint()`. A token that counts its polls shows that each stage
polls, and a token that fires at its n-th poll, for every n, shows that a
run stops wherever it polls.
"""

import threading
from dataclasses import replace

import pytest

from anosovgraph.analysis import analyze
from anosovgraph.errors import CancelToken, OperationCancelled, checkpoint
from anosovgraph.families import family_I_modified, family_II
from anosovgraph.graphs import VertexPermutation, coherent_components, complete_graph, discrete_graph
from anosovgraph.holonomy import build_action
from anosovgraph.hyperbolicity import _power_product, char_poly
from anosovgraph.liealg import brackets_preserved, extend_rows
from anosovgraph.polynomials import IntPolynomial, palindromic_to_interval_poly, squarefree_part
from anosovgraph.witness import (
    ABERTH_MAX_SWEEPS,
    CAT_MAP_ROWS,
    _aberth_roots,
    _int_matpow,
    find_seed,
    log_modulus_bounds,
    plan_blocks,
)

from tests_support_oracles import CancelOnCheck, factor_product


def case(name):
    """(graph, generators) of a named witness case."""
    if name == "discrete 8":
        return discrete_graph(8), []
    inst = family_II(3, 3) if name == "II n=3 s=3" else family_I_modified(3)
    return inst.graph, inst.generators


def witness_json(name):
    graph, gens = case(name)
    report = analyze(graph, gens, want_witness=True)
    assert report.witness is not None
    return report.to_json()


class TestScope:
    def test_block_activates_the_token(self):
        token = CancelOnCheck()
        checkpoint()
        with token as entered:
            assert entered is token
            checkpoint()
            checkpoint()
        checkpoint()
        assert token.checks == 2

    def test_nested_block_restores_the_outer_token(self):
        outer, inner = CancelOnCheck(), CancelOnCheck()
        with outer:
            checkpoint()
            with inner:
                checkpoint()
                with outer:  # the same token again, one level deeper
                    checkpoint()
                checkpoint()
            checkpoint()
        assert (outer.checks, inner.checks) == (3, 2)

    def test_exception_restores_the_previous_token(self):
        outer, inner = CancelOnCheck(), CancelOnCheck()
        inner.cancel()
        with outer:
            with pytest.raises(OperationCancelled):
                with inner:
                    checkpoint()
            checkpoint()  # outer again: not cancelled
            with pytest.raises(KeyError):
                with inner:
                    raise KeyError("not a cancellation")
            checkpoint()
        checkpoint()  # no token: the cancelled one is gone too
        assert (outer.checks, inner.checks) == (2, 1)

    def test_active_token_does_not_reach_another_thread(self):
        m = [[(3 * i + 5 * j) % 7 + 1 for j in range(6)] for i in range(6)]
        expected = char_poly(m)
        token = CancelOnCheck()
        token.cancel()
        result = {}

        def work():
            result["poly"] = char_poly(m)

        with token:
            t = threading.Thread(target=work)
            t.start()
            t.join(timeout=60)
            with pytest.raises(OperationCancelled):
                checkpoint()
        assert result["poly"] == expected
        assert token.checks == 1

    def test_one_token_entered_on_two_threads(self):
        # A enters, then B; A leaves first, then B: each thread unwinds its own block
        token = CancelOnCheck()
        entered_a, entered_b, left_a = threading.Event(), threading.Event(), threading.Event()
        after = {}

        def thread_a():
            with token:
                entered_a.set()
                entered_b.wait(timeout=60)
                checkpoint()
            left_a.set()
            checkpoint()  # no token here any more
            after["a"] = token.checks

        def thread_b():
            entered_a.wait(timeout=60)
            with token:
                entered_b.set()
                left_a.wait(timeout=60)
                checkpoint()
            checkpoint()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert after["a"] == 1 and token.checks == 2


def first_orbit_plan():
    """The plan of the first orbit of I-modified m=3 at exponent 3, with nothing cached."""
    graph, gens = case("I-modified m=3")
    (plan, *_) = plan_blocks(build_action(coherent_components(graph), gens))
    return replace(plan, exponent=3)


class TestStagesOutsideTheKernels:
    """The plan's dense seed polynomial, its block polynomial and the
    log-modulus bounds run kernels that poll, with no argument to pass."""

    def test_seed_char_poly_polls(self):
        with CancelOnCheck() as token:
            first_orbit_plan().seed_char_poly
        assert token.checks > 0
        cancelled = CancelToken()
        cancelled.cancel()
        plan = first_orbit_plan()
        with cancelled, pytest.raises(OperationCancelled):
            plan.seed_char_poly

    def test_block_char_poly_polls(self):
        plan = first_orbit_plan()
        plan.seed_char_poly  # taken outside: only the block's own polls count
        with CancelOnCheck() as token:
            plan.block_char_poly
        assert token.checks > 0
        cancelled = CancelToken()
        cancelled.cancel()
        plan = first_orbit_plan()
        plan.seed_char_poly
        with cancelled, pytest.raises(OperationCancelled):
            plan.block_char_poly

    def test_log_modulus_bounds_polls(self):
        p = first_orbit_plan().seed_char_poly
        with CancelOnCheck() as token:
            bounds = log_modulus_bounds(p)
        assert token.checks > 0
        assert bounds == log_modulus_bounds(p)
        cancelled = CancelToken()
        cancelled.cancel()
        with cancelled, pytest.raises(OperationCancelled):
            log_modulus_bounds(p)

    def test_root_solver_polls_once_per_sweep(self):
        # the structured seed on 16 points: its iteration stalls above the
        # stop rule and runs every sweep
        graph = discrete_graph(16)
        gen = VertexPermutation.from_cycles("(v1 v2)(v3 v4)", graph.vertices)
        (orbit,) = build_action(coherent_components(graph), [gen]).orbits
        p = squarefree_part(find_seed(orbit.stabilizer.restriction, orbit.c)[1].char_poly)
        with CancelOnCheck() as token:
            roots = _aberth_roots(p)
        assert token.checks == ABERTH_MAX_SWEEPS
        assert len(roots) == p.degree

    def test_bracket_check_polls_once_per_vertex_column(self):
        graph = complete_graph(5)
        rows = extend_rows(graph, [[int(i == j) for j in range(5)] for i in range(5)])
        with CancelOnCheck() as token:
            assert brackets_preserved(graph, rows)
        assert token.checks == 5


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def five_cycle_group():
    graph = discrete_graph(5)
    gen = VertexPermutation.from_cycles("(v1 v2 v3 v4 v5)", graph.vertices)
    return VertexPermutation.generated_group([gen], graph.vertices, 10)


class TestPollsPerStep:
    """Stages that poll once per step of their loop: a full run polls that
    often, and a token that fires at any of those polls stops the run there."""

    STAGES = {
        # K5 has 10 edges
        "extend_rows, per wedge column": (lambda: extend_rows(complete_graph(5), identity_rows(5)), 10),
        # 13 = 0b1101: three products into the result and three squarings
        "_int_matpow, per product": (lambda: _int_matpow(CAT_MAP_ROWS, 13), 6),
        # x^20 + 1 = x^10 q(x + 1/x): k = 1..10
        "palindromic_to_interval_poly, per k": (
            lambda: palindromic_to_interval_poly(IntPolynomial([1] + [0] * 19 + [1])),
            10,
        ),
        # the frontiers {1}, {g}, ..., {g^4}
        "generated_group, per frontier round": (five_cycle_group, 5),
    }

    @pytest.mark.parametrize("name", sorted(STAGES))
    def test_poll_count(self, name):
        stage, polls = self.STAGES[name]
        with CancelOnCheck() as token:
            stage()
        assert token.checks == polls

    @pytest.mark.parametrize("name", sorted(STAGES))
    def test_stops_at_every_poll(self, name):
        stage, polls = self.STAGES[name]
        for at in range(1, polls + 1):
            with CancelOnCheck(at) as token, pytest.raises(OperationCancelled):
                stage()
            assert token.checks == at


class TestFactorProduct:
    """`hyperbolicity._power_product` polls once per factor, before it raises that factor to its power."""

    FACTORS = [(IntPolynomial([1, -3, 1]), 40), (IntPolynomial([-1, 0, 1]), 3), (IntPolynomial([1, -2, -1, 1]), 25)]

    def test_polls_once_per_factor(self):
        with CancelOnCheck() as token:
            product = _power_product(self.FACTORS)
        assert token.checks == len(self.FACTORS)
        assert product == factor_product(self.FACTORS)

    def test_stops_at_every_poll(self):
        for at in range(1, len(self.FACTORS) + 1):
            with CancelOnCheck(at) as token, pytest.raises(OperationCancelled):
                _power_product(self.FACTORS)
            assert token.checks == at


class TestWholePipeline:
    # analyze(..., want_witness=True) plus to_json() polls this often once
    # the process has built the seed catalog, whose cyclotomic conversions
    # poll on its first use only: each certificate also polls once per
    # factor in its three factor products (4, 2 and 14 factors in all on
    # these three cases), the root solver once per sweep (5, 8 and 5 + 5 + 5
    # sweeps), the bracket check once per vertex column (9, 8 and 16
    # columns), the group closure once per frontier round (3, 1 and 2), the
    # extension once per wedge column (27, 0 and 39), the block powers once
    # per product (1, 1 and 10), and the x + 1/x conversion once per k (3,
    # on I-modified m=3 only)
    POLLS = {"II n=3 s=3": 109, "discrete 8": 72, "I-modified m=3": 329}

    @pytest.mark.parametrize("name", sorted(POLLS))
    def test_poll_count(self, name):
        graph, gens = case(name)
        witness_json(name)  # builds the seed catalog this case reads
        with CancelOnCheck() as token:
            analyze(graph, gens, want_witness=True).to_json()
        assert token.checks == self.POLLS[name]

    @pytest.mark.parametrize("name", ["II n=3 s=3", "discrete 8"])
    def test_stops_at_every_poll(self, name):
        graph, gens = case(name)
        reference = witness_json(name)
        for at in range(1, self.POLLS[name] + 1):
            with CancelOnCheck(at) as token, pytest.raises(OperationCancelled):
                analyze(graph, gens, want_witness=True)
            assert token.checks == at
        # nothing a cancelled run left behind changes the next run's bytes
        assert witness_json(name) == reference
        with CancelOnCheck():
            assert witness_json(name) == reference
