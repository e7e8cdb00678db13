"""Seeded inputs for the four benchmark workloads, with the answer each op must give.

Every workload builds a list of `Op`s: the argv for `anosovgraph.cli.main` and a
check that turns (exit code, stdout) into a failure reason or None. Inputs are
generated by this file from the seed alone; the program only sees the files
and strings written here.

Seed 0 is the default: family graphs keep their file order. Other seeds permute
vertices inside each coherent component, which changes the input bytes but not
the work. The seeded graphs, polynomials and matrices have sizes fixed by the
workload and only their structure varies with the seed. Both keep times
comparable across seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import log
from pathlib import Path
from typing import Callable

import numpy as np

from anosovgraph.families import FamilySpec, generate
from anosovgraph.graphs import coherent_components, graph_from_json_dict
from anosovgraph.repdecomp import trivial_holonomy_check

EXIT_OF_VERDICT = {"yes": 0, "no": 1, "undecided": 2}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


# ---------------------------------------------------------------------------
# Graph inputs


def twin_classes(vertices, edges) -> list[list[str]]:
    """Vertices u, v with N(u) - {v} == N(v) - {u}, in first-appearance order.

    These are the coherent components; computed here so the benchmark does not
    ask the program what it is about to be tested on.
    """
    nbrs = {v: set() for v in vertices}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    classes: list[list[str]] = []
    for v in vertices:
        for cls in classes:
            u = cls[0]
            if nbrs[u] - {v} == nbrs[v] - {u}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def shuffle_within_classes(rng: random.Random, vertices, edges) -> list[str]:
    """Permute vertices among the positions their coherent component occupies."""
    order = list(vertices)
    position = {v: i for i, v in enumerate(order)}
    for cls in twin_classes(vertices, edges):
        slots = sorted(position[v] for v in cls)
        members = list(cls)
        rng.shuffle(members)
        for slot, v in zip(slots, members):
            order[slot] = v
    return order


def graph_payload(rng: random.Random | None, vertices, edges, holonomy: str = "") -> dict:
    """The `family` JSON format: graph plus embedded holonomy."""
    edges = [list(e) for e in edges]
    if rng is not None:
        vertices = shuffle_within_classes(rng, vertices, edges)
        rng.shuffle(edges)
        for e in edges:
            if rng.random() < 0.5:
                e.reverse()
    return {"graph": {"vertices": list(vertices), "edges": edges}, "holonomy": holonomy}


def family_payload(rng, spec: FamilySpec) -> tuple[dict, int]:
    inst = generate(spec)
    g = inst.graph
    holonomy = ";".join(h.cycle_string() for h in inst.generators)
    return graph_payload(rng, g.vertices, g.edges, holonomy), inst.expected_dimension


def blowup(prefix: str, sizes, base_edges, complete) -> tuple[list, list, list]:
    """Replace base node i by a class of sizes[i] twins, complete when complete[i]."""
    classes = [[f"{prefix}{i}_{t}" for t in range(s)] for i, s in enumerate(sizes)]
    edges = []
    for i, cls in enumerate(classes):
        if complete[i]:
            edges.extend(itertools.combinations(cls, 2))
    for i, j in base_edges:
        edges.extend((u, v) for u in classes[i] for v in classes[j])
    return [v for cls in classes for v in cls], edges, classes


def random_base(rng: random.Random, k: int, m: int) -> list[tuple[int, int]]:
    """m random edges on k nodes."""
    return rng.sample(list(itertools.combinations(range(k), 2)), m)


def cycle_string(cycles) -> str:
    return "".join("(" + " ".join(c) + ")" for c in cycles if len(c) > 1)


# The seeded graphs below have fixed sizes and edge counts, and only their
# structure varies with the seed, so the sweep does about the same work on
# every seed.


def complete_flags(rng: random.Random, k: int, count: int) -> list[bool]:
    chosen = set(rng.sample(range(k), count))
    return [i in chosen for i in range(k)]


def rotation_blowup(rng: random.Random, prefix: str) -> dict:
    """Blow-up whose holonomy rotates vertices inside one class, sometimes also swapping two in another."""
    sizes = [2, 3, 4, 3, 2]
    vertices, edges, classes = blowup(prefix, sizes, random_base(rng, 5, 5), complete_flags(rng, 5, 2))
    picked = rng.sample(range(5), 2)
    gens = [cycle_string([classes[picked[0]]])]
    if rng.random() < 0.5:
        gens.append(cycle_string([classes[picked[1]][:2]]))
    return graph_payload(None, vertices, edges, ";".join(gens))


def swap_blowup(rng: random.Random, prefix: str) -> dict:
    """Two copies of a blown-up base graph, cross-linked symmetrically; holonomy swaps them."""
    k = 4
    base = random_base(rng, k, 3)
    cross = rng.sample([(i, j) for i in range(k) for j in range(i, k)], 3)
    edges2 = base + [(i + k, j + k) for i, j in base]
    edges2 += [(i, j + k) for i, j in cross] + [(j, i + k) for i, j in cross if i != j]
    vertices, edges, classes = blowup(prefix, [2, 3, 2, 3] * 2, edges2, complete_flags(rng, k, 1) * 2)
    swap = [(u, v) for i in range(k) for u, v in zip(classes[i], classes[i + k])]
    return graph_payload(None, vertices, edges, cycle_string(swap))


def trivial_blowup(rng: random.Random, prefix: str) -> dict:
    sizes = [1, 2, 3, 4, 2, 3]
    vertices, edges, _ = blowup(prefix, sizes, random_base(rng, 6, 6), complete_flags(rng, 6, 2))
    return graph_payload(None, vertices, edges)


def random_graph(rng: random.Random, prefix: str) -> dict:
    """G(30, 65): about one vertex pair in seven is an edge."""
    vertices = [f"{prefix}{i}" for i in range(30)]
    edges = rng.sample(list(itertools.combinations(vertices, 2)), 65)
    return graph_payload(None, vertices, edges)


def symmetric_group_on_side(k: int, diagonal: bool) -> dict:
    """K_{k,k} with S_k acting on one side (or on both sides at once)."""
    a = [f"a{i}" for i in range(1, k + 1)]
    b = [f"b{i}" for i in range(1, k + 1)]
    edges = [(u, v) for u in a for v in b]
    gens = []
    for cycle in (a[:2], a):
        cycles = [cycle] + ([[f"b{v[1:]}" for v in cycle]] if diagonal else [])
        gens.append(cycle_string(cycles))
    return graph_payload(None, a + b, edges, ";".join(gens))


# ---------------------------------------------------------------------------
# Checks


def expect_analysis(verdict: str | None, dimension: int, witness: bool) -> Callable:
    """Check an `analyze --json` report against what the input was built to give."""

    def check(rc: int, out: str) -> str | None:
        rep = json.loads(out)
        got = rep["decision"]["verdict"]
        if verdict is not None and got != verdict:
            return f"verdict {got}, expected {verdict}"
        if rc != EXIT_OF_VERDICT[got]:
            return f"exit code {rc} for verdict {got}"
        if rep["algebra_dimension"] != dimension:
            return f"algebra dimension {rep['algebra_dimension']}, expected {dimension}"
        if witness:
            w = rep.get("witness")
            if w is None:
                return f"no witness: {rep.get('witness_error')}"
            if w["certificate"]["valid"] is not True:
                return "witness certificate is not valid"
            if abs(w["full_char_poly"][0]) != 1 or w["full_char_poly"][-1] != 1:
                return "witness char poly is not monic with unit constant term"
        return None

    return check


def expect_certificate(valid: bool, stage: str | None, char_poly: list[int]) -> Callable:
    """Check a `certify --json` payload against the known answer of its input."""

    def check(rc: int, out: str) -> str | None:
        payload = json.loads(out)
        cert = payload["certificate"]
        if cert["char_poly"] != char_poly:
            return "characteristic polynomial differs from the constructed one"
        if payload["valid"] is not valid:
            return f"valid={payload['valid']}, expected {valid} ({payload['reason']})"
        if rc != (0 if valid else 1):
            return f"exit code {rc}"
        if stage is not None:
            failing = [s for s in cert["stages"] if s["analysis"]["exists"]]
            if not failing or failing[0]["analysis"]["stage"] != stage:
                return f"unit-circle root not found at the {stage} stage"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads


def write(workdir: Path, name: str, payload: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def witness_ops(specs, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed) if seed else None
    ops = []
    for i, (label, spec) in enumerate(specs):
        payload, dim = family_payload(rng, spec)
        path = write(workdir, f"w{i}.json", payload)
        ops.append(Op(label, ("analyze", "--graph", path, "--json", "--witness"),
                      expect_analysis("yes", dim, witness=True)))
    return ops


CHAIN = [
    ("I-modified m=3", FamilySpec("I-modified", m=3)),
    ("I m=3 sizes 2,2,3", FamilySpec("I", m=3, sizes=(2, 2, 3))),
]
CYCLE = [
    ("II n=5 s=3", FamilySpec("II", n=5, size=3)),
    ("II-Z4 s=3", FamilySpec("II-Z4", size=3)),
    ("II n=3 s=3", FamilySpec("II", n=3, size=3)),
]
TINY_WITNESS = [("I m=1 sizes 3", FamilySpec("I", m=1, sizes=(3,)))]

SWEEP_FAMILIES = [
    FamilySpec("II", n=15, size=8),
    FamilySpec("I", m=8, sizes=(2, 2, 2, 2, 2, 2, 2, 3)),
    FamilySpec("I-modified", m=6),
    FamilySpec("II-Z4", size=4),
    FamilySpec("II", n=7, size=4),
    FamilySpec("II", n=3, size=5),
]


def decide_sweep_ops(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    shuffle_rng = random.Random(seed) if seed else None
    items = []  # (label, payload, expected verdict or None)
    for spec in [FamilySpec("II", n=3, size=3)] if tiny else SWEEP_FAMILIES:
        payload, _ = family_payload(shuffle_rng, spec)
        items.append((f"family {spec.family}", payload, "yes"))
    for k, diagonal in ([(3, False)] if tiny else [(4, False), (5, False), (6, False), (6, True)]):
        items.append((f"S{k} on K{k},{k}", symmetric_group_on_side(k, diagonal), "undecided"))
    makers = [rotation_blowup, swap_blowup, trivial_blowup, random_graph]
    for t in range(1 if tiny else 8):
        for maker in makers:
            payload = maker(rng, f"v{t}{maker.__name__[0]}")
            items.append((maker.__name__, payload, None))
    ops = []
    for i, (label, payload, verdict) in enumerate(items):
        graph = payload["graph"]
        if not payload["holonomy"]:
            verdict = trivial_holonomy_check(coherent_components(graph_from_json_dict(graph))).verdict
        path = write(workdir, f"d{i}.json", payload)
        dim = len(graph["vertices"]) + len(graph["edges"])
        ops.append(Op(label, ("analyze", "--graph", path, "--json"),
                      expect_analysis(verdict, dim, witness=False)))
    return ops


# Certify inputs: polynomials and matrices assembled from small integer blocks
# whose spectra are known, so the answer is known without asking the program.


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_matpow(a, k: int):
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        result = int_matmul(result, a)
    return result


def block_char_poly(a) -> list[int]:
    """Characteristic polynomial (ascending) of a small integer matrix, by Newton's identities."""
    n = len(a)
    power, sums = a, []
    for m in range(1, n + 1):
        sums.append(sum(power[i][i] for i in range(n)))
        power = int_matmul(power, a)
    e = [1]
    for k in range(1, n + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1))
        e.append(total // k)
    return [(-1) ** k * e[k] for k in range(n, -1, -1)]


def log_moduli(poly: list[int]) -> list[float]:
    return [log(abs(r)) for r in np.roots(list(reversed(poly)))]


def hyperbolic_block(rng: random.Random, dim: int, min_log: float, det: int | None = None):
    """A unimodular integer block, returned with the log-moduli of its eigenvalues.

    Every eigenvalue has |log|λ|| >= min_log. A 2x2 block with det = +1 has a
    palindromic characteristic polynomial; with det = -1 (or None) its trace is
    positive. Larger blocks have exactly one eigenvalue outside the unit circle,
    so each product of two of their eigenvalues is off the circle as well.
    With these shapes the only factors shared by a product of block polynomials
    and its reversal are the palindromic ones, whatever the seed.
    """
    while True:
        if dim == 2:
            if det == 1:
                rows = [[rng.choice([-1, 1]) * rng.randint(3, 5), -1], [1, 0]]
            else:
                rows = [[rng.randint(1, 4), 1], [1, 0]]
        else:
            rows = [[int(i == j + 1) for j in range(dim)] for i in range(dim)]
            for i in range(dim):
                rows[i][dim - 1] = rng.randint(-4, 4)
            rows[0][dim - 1] = rng.choice([-1, 1])
        logs = log_moduli(block_char_poly(rows))
        if min(abs(x) for x in logs) >= min_log and (dim == 2 or sum(x > 0 for x in logs) == 1):
            return rows, logs


def power_for_bits(logs: list[float], bits: float, odd: bool) -> int:
    """Exponent that brings the block's log2 Mahler measure near `bits`."""
    mahler = sum(x for x in logs if x > 0) / log(2)
    k = max(1, round(bits / mahler))
    return k + 1 if odd and k % 2 == 0 else k


SALEM_QUARTIC = [1, -1, -1, -1, 1]  # two roots on the unit circle, none at +-1
CYCLOTOMIC_2 = [1, 1]  # x + 1: root at -1


def certify_poly_input(rng: random.Random, blocks, bits: float, extra: list[int] | None):
    """Product of characteristic polynomials of powered hyperbolic blocks, times `extra`.

    `blocks` lists (dim, det) pairs; det fixes which 2x2 factors are palindromic,
    which sets the degree of the reciprocal gcd and so the work of the test.
    """
    poly = [1]
    for dim, det in blocks:
        rows, logs = hyperbolic_block(rng, dim, 0.2, det)
        k = power_for_bits(logs, bits, odd=(dim == 2 and det != 1))
        poly = poly_mul(poly, block_char_poly(int_matpow(rows, k)))
    if extra is not None:
        poly = poly_mul(poly, extra)
    return poly


def format_poly(coeffs: list[int]) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c:
            terms.append(f"{'-' if c < 0 else '+'} {abs(c)}x^{power}")
    return " ".join(terms).lstrip("+ ")


def certify_matrix_input(rng: random.Random, dims: list[int], entry_bits: int):
    """Dense P D P^-1 with D block diagonal, and the characteristic polynomial of D.

    P in GL(n, Z) grows by random elementary row operations until the largest
    entry of P D P^-1 has `entry_bits` bits, so the size of the work does not
    depend on the seed.

    Blocks are drawn until every product of two eigenvalues from different
    blocks has |log|λμ|| >= 0.3, so only a 2x2 block, whose eigenvalue pair
    multiplies to its determinant -1, puts a pair product on the unit circle.
    Level 2 therefore holds exactly when `dims` has no 2.
    """
    while True:
        blocks = [hyperbolic_block(rng, dim, 0.3) for dim in dims]
        cross = [
            x + y
            for (_, xs), (_, ys) in itertools.combinations(blocks, 2)
            for x in xs
            for y in ys
        ]
        if min(abs(v) for v in cross) >= 0.3:
            break
    n = sum(dims)
    d = [[0] * n for _ in range(n)]
    poly, at = [1], 0
    for rows, _ in blocks:
        poly = poly_mul(poly, block_char_poly(rows))
        for i, row in enumerate(rows):
            d[at + i][at : at + len(row)] = row
        at += len(rows)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in p]
    while True:
        matrix = int_matmul(int_matmul(p, d), inv)
        if max(abs(x) for row in matrix for x in row).bit_length() >= entry_bits:
            return matrix, poly
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-1, 1])
        # P <- E P and P^-1 <- P^-1 E^-1 for E = I + k e_ij
        p[i] = [x + k * y for x, y in zip(p[i], p[j])]
        for row in inv:
            row[j] -= k * row[i]


def certify_ops(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    # Each polynomial: two palindromic 2x2 factors (reciprocal gcd of degree 4),
    # eight 2x2 factors with det -1 and ten cubic ones; degree 50, about 300 bits.
    blocks = [(2, 1)] * 2 + [(2, -1)] * 8 + [(3, None)] * 10
    poly_cases = [(None, None)] * 4 + [(SALEM_QUARTIC, "sturm"), (CYCLOTOMIC_2, "endpoints")]
    matrix_cases = [[3, 3, 3], [3, 3, 4], [2, 3, 3], [2, 4, 4]]
    bits, entry_bits = 15.0, 8
    if tiny:
        blocks, bits, entry_bits = [(2, 1), (2, -1), (3, None)], 4.0, 4
        poly_cases, matrix_cases = poly_cases[1:3], [[2, 3]]
    for extra, stage in poly_cases:
        poly = certify_poly_input(rng, blocks, bits, extra)
        argv = ("certify", "--poly", format_poly(poly), "--c", "1", "--json")
        ops.append(Op(f"poly deg {len(poly) - 1}", argv, expect_certificate(extra is None, stage, poly)))
    for dims in matrix_cases:
        valid = 2 not in dims
        matrix, poly = certify_matrix_input(rng, dims, entry_bits)
        argv = ("certify", "--matrix", json.dumps(matrix), "--c", "2", "--json")
        ops.append(Op(f"matrix {sum(dims)}", argv, expect_certificate(valid, None if valid else "endpoints", poly)))
    return ops


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    if workload == "witness-chain":
        return witness_ops(TINY_WITNESS if tiny else CHAIN, seed, workdir)
    if workload == "witness-cycle":
        return witness_ops(TINY_WITNESS if tiny else CYCLE, seed, workdir)
    if workload == "decide-sweep":
        return decide_sweep_ops(seed, workdir, tiny)
    if workload == "certify-whole":
        return certify_ops(seed, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}")
