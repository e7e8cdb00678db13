"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it asserts that
- run.py prints exactly the metrics BENCHMARK.json names, with --trace 0 and 1;
- traced spans nest, and per op their self times add up to at most the op's wall time;
- counts repeat exactly between two traced passes;
- the traced pass gives the same output digests as the untraced pass;
and that run.py fails, without printing a result, when the package sources are
missing from the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import run
from tracing import Tracer, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=cwd)


def check_spans(tracer: Tracer, results) -> None:
    spans = tracer.spans
    per_op = defaultdict(float)
    for i, ((name, start, end, parent, op), own) in enumerate(zip(spans, tracer.self_times())):
        assert start <= end, name
        if parent is not None:
            p = spans[parent]
            assert parent < i and p[1] <= start and end <= p[2] and p[4] == op, (name, p[0])
        assert own >= 0, name
        per_op[op] += own
    for op, total in per_op.items():
        assert total <= results[op][0], (op, total, results[op][0])


def check_traced_pass(cli, workload: str, workdir: Path) -> None:
    import workloads

    ops = workloads.build(workload, 1, workdir, tiny=True)
    _, plain = run.run_pass(cli, ops)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            _, traced = run.run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        assert not run.failures(ops, plain, None) and not run.failures(ops, traced, None)
        assert [run.digest(r[2]) for r in plain] == [run.digest(r[2]) for r in traced]
        check_spans(tracer, traced)
        assert not tracer.absent(), tracer.absent()
        counts.append({k: v for k, v in tracer.metrics().items() if unit(k) != "s"})
    assert counts[0] == counts[1], (counts[0], counts[1])


def check_bare_directory(workload: str) -> None:
    """Only BENCHMARK.json and the benchmark's files: run.py must fail and print no result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = bench_run(bare / HERE.name / "run.py", workload, 0, bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    cli = run.import_package()
    (HERE / "_work").mkdir(exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
            check_traced_pass(cli, workload, Path(tmp))
        for trace, names in expected.items():
            proc = bench_run(HERE / "run.py", workload, trace, ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == names, (trace, set(got) ^ set(names))
        print(f"{workload}: ok", flush=True)
    check_bare_directory(bench["workloads"][0]["name"])
    print("bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
