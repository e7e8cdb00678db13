"""anosovgraph benchmark: one workload through `anosovgraph.cli.main`, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: the workload's ops run one at a time, at CLI
defaults, in passes over the op list, until the next pass would end after
--seconds. Every op's exit code and output are checked (see workloads.py); on
seed 0 its stdout must also match the sha256 recorded in digests.json.

--trace 0 prints the end-to-end metrics; op times in them are scaled by a
reference chunk run between ops (see run_pass and NOTES.md). --trace 1
alternates untraced and traced passes and prints the per-layer metrics of the
traced ones (see tracing.py). The last stdout line is the result object; the
line before it records the run context, raw times included.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
REF_CHUNK_S = 0.010  # nominal seconds of one reference chunk
REF_EVERY_S = 0.25  # op time between reference chunks
DEFAULT_SEED = 0


def import_package():
    """Import anosovgraph from the checkout's own sources, never from elsewhere."""
    if not (SRC / "anosovgraph" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no anosovgraph sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from anosovgraph import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: anosovgraph was imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import, input generation and warm-up; returns (cli, ops, timings)."""
    cli = import_package()
    import workloads

    t_import = time.perf_counter() - START
    t = time.perf_counter()
    ops = workloads.build(workload, seed, workdir, tiny)
    t_inputs = time.perf_counter() - t
    t = time.perf_counter()
    warm = workdir / "warm-up"
    warm.mkdir()
    for op in workloads.build(workload, seed, warm, tiny=True):
        run_op(cli, op)
    t_warm = time.perf_counter() - t
    return cli, ops, {"import_s": t_import, "inputs_s": t_inputs, "warmup_s": t_warm}


def run_op(cli, op):
    """One CLI call with stdout/stderr captured: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, rc, out.getvalue(), error


def reference_chunk() -> float:
    """Seconds taken by fixed pure-Python work that does not touch the package.

    Big-integer division, Fraction arithmetic and an interpreter loop, the three
    kinds of work the package does. Its time tracks how fast this machine runs
    Python right now; it takes about REF_CHUNK_S at the speed scaled times
    refer to.
    """
    t = time.perf_counter()
    for _ in range(7):
        x, y = 3 ** 1500, 2 ** 2300 + 7
        while y:
            x, y = y, x % y
        s = Fraction(0)
        for k in range(1, 150):
            s += Fraction(k, k + 1) * Fraction(1, k + 2)
        acc = 0
        for i in range(6000):
            acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def run_pass(cli, ops, tracer=None, scaled=None):
    """All ops once, in order; returns (pass seconds, per-op results).

    The pass time is the sum of op latencies. When `scaled` is a list, reference
    chunks run between ops, one per REF_EVERY_S of op time and at least one
    after the last op. Each op's latency is scaled by the chunks that run next
    after it, REF_CHUNK_S / median(their times), and appended to `scaled`.
    """
    results = []
    owed, pending = 0.0, 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(cli, op))
        if scaled is None:
            continue
        owed += results[-1][0] / REF_EVERY_S
        pending += 1
        if owed >= 1 or i == len(ops) - 1:
            chunks = [reference_chunk() for _ in range(max(1, int(owed)))]
            owed = max(0.0, owed - len(chunks))
            factor = REF_CHUNK_S / statistics.median(chunks)
            scaled.extend(r[0] * factor for r in results[-pending:])
            pending = 0
    return sum(r[0] for r in results), results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failures(ops, results, digests) -> list[str]:
    """Why each failed op failed; an empty list when all are correct."""
    out = []
    for i, (op, (_, rc, stdout, error)) in enumerate(zip(ops, results)):
        if error is None:
            try:
                error = op.check(rc, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable output (exit {rc}): {type(exc).__name__}: {exc}"
        if error is None and digests is not None and digest(stdout) != digests[i]:
            error = "output differs from the digest recorded for seed 0"
        if error is not None:
            out.append(f"{op.label}: {error}")
    return out


def tail_ms(latencies: list[float]):
    """Highest percentile with at least ten ops beyond it: (ms, percentile), or None."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11] * 1000, 100 * (n - 10) / n


def setup_probe(workload: str, seed: int, tiny: bool) -> dict:
    """Set-up timings of a fresh interpreter (run.py --probe-setup)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe-setup"]
    proc = subprocess.run(argv + (["--tiny"] if tiny else []), capture_output=True, text=True,
                          timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def context(args) -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
    }


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure(args, cli, ops, tracer) -> dict:
    """Passes until the next would overrun --seconds; traced passes alternate when tracing."""
    digests = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    deadline = time.perf_counter() + args.seconds
    walls, took = {False: [], True: []}, {}
    latencies, scaled, scaled_walls, failed, layer = [], [], [], [], []
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        started, n_scaled = time.perf_counter(), len(scaled)
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, results = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
            layer.append(tracer.metrics())
        else:
            wall, results = run_pass(cli, ops, scaled=scaled)
            latencies.extend(r[0] for r in results)
            scaled_walls.append(sum(scaled[n_scaled:]))
        took[traced] = time.perf_counter() - started
        walls[traced].append(wall)
        failed.extend(failures(ops, results, digests))
        nxt = tracer is not None and len(walls[False]) > len(walls[True])
        done = walls[False] and (tracer is None or walls[True])
        if done and time.perf_counter() + took.get(nxt, took[traced]) > deadline:
            break
    return {"walls": walls, "latencies": latencies, "scaled": scaled, "scaled_walls": scaled_walls,
            "failed": failed, "layer": layer, "attempted": len(ops) * (len(walls[False]) + len(walls[True]))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["witness-chain", "witness-cycle", "decide-sweep", "certify-whole"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the seed-0 output digests of this workload to digests.json")
    args = parser.parse_args(argv)

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        cli, ops, first = set_up(args.workload, args.seed, workdir, args.tiny)
        if args.probe_setup:
            print(json.dumps(first))
            return 0
        if args.record_digests:
            _, results = run_pass(cli, ops)
            reasons = failures(ops, results, None)
            if args.seed != DEFAULT_SEED or reasons:
                raise SystemExit(f"perfbench: not recording digests: seed {args.seed}, {reasons}")
            table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            table[args.workload] = [digest(r[2]) for r in results]
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            return 0
        ctx = context(args)
        setups = [first] + [setup_probe(args.workload, args.seed, args.tiny) for _ in range(SETUP_SAMPLES - 1)]
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        run = measure(args, cli, ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls, latencies = run["walls"], run["latencies"]
    setup = median_metrics(setups)
    wall, p50, tail = statistics.median(walls[False]), statistics.median(latencies), tail_ms(latencies)
    scaled_tail = tail_ms(run["scaled"])
    if args.trace:
        from tracing import unit

        metrics = {k: (v, unit(k)) for k, v in median_metrics(run["layer"]).items()}
        metrics["setup.import_s"] = (setup["import_s"], "s")
        metrics["setup.inputs_s"] = (setup["inputs_s"], "s")
        metrics["trace.overhead_ratio"] = (statistics.median(walls[True]) / wall, "ratio")
        ctx["absent"] = tracer.absent()
        (HERE / "_out").mkdir(exist_ok=True)
        spans = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans))  # the last traced pass
    else:
        metrics = {
            "wall_scaled_s": (statistics.median(run["scaled_walls"]), "s"),
            "op_p50_scaled_ms": (statistics.median(run["scaled"]) * 1000, "ms"),
            "setup_s": (statistics.median(sum(s.values()) for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    ctx.update({
        "seconds": args.seconds,
        "passes": len(walls[False]) + len(walls[True]),
        "ops_per_pass": len(ops),
        "wall_s": wall,
        "op_p50_ms": p50 * 1000,
        "op_tail_ms": None if tail is None else {"value": tail[0], "scaled": scaled_tail[0],
                                                  "percentile": tail[1], "ops": len(latencies)},
        "speed": sum(run["scaled"]) / sum(latencies),
        "failed_ratio": len(run["failed"]) / run["attempted"],
        "failures": run["failed"][:10],
        "setup_samples": setups,
    })
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not run["failed"],
        "attempted": run["attempted"],
        "failed": len(run["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
