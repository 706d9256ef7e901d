"""The benchmark's closed-loop client: one process, one client, ops back to back.

Run by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1:

    python bench/client.py probe <workload>
    python bench/client.py run <workload> <seed> <seconds> <trace> <pass_ops>

``probe`` imports ``defectline.cli``, runs the workload's warm-up op and
prints one JSON line; the caller times it from launch.  ``run`` issues the
workload's pass of ops through ``defectline.cli.main(argv)`` in-process with
stdout captured, checks every output, and prints one JSON line of results.
A run repeats the pass a number of times set by ``seconds`` alone (at least
twice), so every run of a seed does the same ops and fails the same ones.
With ``trace`` 1 it runs one untraced and one traced pass of the same ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import time

from workloads import README_ARGV, README_STDOUT, WORKLOADS, property_shares

# checks and speed import numpy, so they are imported where they are used:
# a set-up probe must load numpy only through defectline.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CATEGORIES = ("exit1", "exit2", "exit3", "exception", "check")
# Seconds of run per pass over the ops: a run of S seconds makes
# max(2, S // PASS_SECONDS) passes.  A pass takes about this long on a
# 2-core Xeon at 2.0 GHz with the seed code.
PASS_SECONDS = 10


def _import_cli():
    import defectline.cli

    if not os.path.abspath(defectline.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"defectline imported from {defectline.cli.__file__}, not {SRC}")
    return defectline.cli


def call(main, argv) -> tuple[int | None, str, str, float]:
    """One CLI call with stdout and stderr captured.

    Returns (exit code or None if it raised, stdout, error text, seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the flags
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def classify(op, code: int | None, out: str) -> tuple[str | None, str]:
    """Failure category of a finished op (None when it passed) and a reason."""
    import checks

    if code is None:
        return "exception", ""
    if code not in (0, 1) or (code == 1 and op.command != "oracle-compare"):
        return f"exit{code}" if code in (1, 2, 3) else "exception", f"exit code {code}"
    try:
        if op.command == "oracle-compare":
            checks.check_oracle_compare(op.argv, out, code)
        else:
            checks.CHECKS[op.command](op.argv, out)
    except Exception as exc:  # a malformed output is a failed check too
        return "check", f"{type(exc).__name__}: {exc}"
    return ("exit1", "deviation over tolerance") if code == 1 else (None, "")


class Pass:
    """Outcome of one pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[float] = []  # reference kernel before each op and after the last
        self.failures = {c: 0 for c in CATEGORIES}
        self.examples: list[dict] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0


def run_pass(main, ops, tracer=None) -> Pass:
    """Every op once, in order; failures are counted and never stop the pass."""
    from speed import reference

    result = Pass()
    t_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            bench = tracer.enter("bench", op.command)
        result.refs.append(reference())
        if tracer is not None:
            cli = tracer.enter("cli", "main")
        code, out, err, seconds = call(main, op.argv)
        if tracer is not None:
            tracer.exit(cli, error=code != 0)
            tracer.count("cli.bytes_out", len(out.encode()))
        category, reason = classify(op, code, out)
        if tracer is not None:
            tracer.exit(bench)
        result.latencies.append(seconds)
        result.digest.update(out.encode())
        if category is not None:
            result.failures[category] += 1
            if len(result.examples) < 8:
                result.examples.append({"op": i, "category": category,
                                        "reason": (reason or err.strip())[:300], "argv": list(op.argv)})
    result.refs.append(reference())
    result.wall = time.perf_counter() - t_start
    return result


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _host() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": sum(_lines(p) for p in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)),
    }


def _lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return "unknown"
    return head


def probe(workload: str) -> None:
    t0 = time.perf_counter()
    sys.stderr.write("bench: import defectline.cli\n")
    sys.stderr.flush()
    cli = _import_cli()
    import_s = time.perf_counter() - t0
    code, _, _, _ = call(cli.main, WORKLOADS[workload].warmup)
    print(json.dumps({"import_s": import_s, "warmup_exit": code}), flush=True)


def run(workload: str, seed: int, seconds: float, trace: bool, pass_ops: int) -> None:
    cli = _import_cli()
    from speed import REF_MS, nominal_ms

    wl = WORKLOADS[workload]
    ops = wl.ops(seed, pass_ops)
    warm_code, _, _, _ = call(cli.main, wl.warmup)
    readme_code, readme_out, _, _ = call(cli.main, README_ARGV)
    readme_ok = readme_code == 0 and readme_out == README_STDOUT

    repeats = 1 if trace else max(2, int(seconds // PASS_SECONDS))
    passes = [run_pass(cli.main, ops) for _ in range(repeats)]
    digests = {p.digest.hexdigest() for p in passes}
    # An op's latency is taken at nominal host speed (see speed.py), the best
    # of its runs, which lie a pass apart.
    nominal = nominal_ms([p.latencies for p in passes], [p.refs for p in passes])
    best = [min(times) for times in zip(*(p.latencies for p in passes))]
    failures = {c: sum(p.failures[c] for p in passes) for c in CATEGORIES}
    attempted, failed = len(ops) * repeats, sum(failures.values())
    result = {
        # Wrong answers on single ops are counted in ``failed`` (category
        # "check"); ``correct`` says whether the run as a whole can be
        # trusted: the warm-up worked and the output is deterministic.
        "correct": warm_code == 0 and readme_ok and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "report": {
            "workload": workload,
            "seed": seed,
            "passes": repeats,
            "latency_samples": len(best),
            "stdout_sha256": passes[0].digest.hexdigest(),
            "passes_identical": len(digests) == 1,
            "readme_identical": readme_ok,
            "warmup_exit": warm_code,
            "fail_ratio": failed / attempted,
            "host_speed": REF_MS / (1e3 * statistics.median(r for p in passes for r in p.refs)),
            "raw": {"ops_per_s": len(best) / sum(best), "op_ms_p50": 1e3 * _quantile(best, 50),
                    "op_ms_p90": 1e3 * _quantile(best, 90)},
            "failures": failures,
            "failure_examples": passes[0].examples,
            "input_shares": property_shares(ops),
            "host": _host(),
        },
    }
    if not trace:
        result["metrics"] = {
            "ops_per_s": 1e3 * len(nominal) / sum(nominal),
            "op_ms_p50": _quantile(nominal, 50),
            "op_ms_p90": _quantile(nominal, 90),
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        result["metrics"], result["report"]["time"] = _traced(cli, ops, passes[0], workload, seed)
    print(json.dumps(result), flush=True)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _traced(cli, ops, untraced: Pass, workload: str, seed: int):
    """One traced pass over the same ops; per-layer metrics and where time went."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli.main, ops, tracer)
    finally:
        tracer.uninstall()
    metrics, by_command = tracer.summary([op.command for op in ops])
    spectrum_ms = metrics.get("spectrum.ms", 0.0)
    metrics["spectrum.us_per_level"] = 1e3 * spectrum_ms / max(metrics.get("spectrum.levels", 0), 1)
    solves = metrics["anholonomy.channel_solves"]
    metrics["anholonomy.step_yield"] = metrics.pop("anholonomy.accepted_steps", 0) / solves if solves else 0.0
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    metrics["trace.wall_ms"] = 1e3 * traced.wall
    metrics["trace.untraced_wall_ms"] = 1e3 * untraced.wall
    metrics["trace.overhead_ms"] = 1e3 * (traced.wall - untraced.wall)
    metrics["trace.accounted_share"] = self_total / (1e3 * traced.wall)
    metrics["trace.spans"] = len(tracer.spans)
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl.gz"))
    where = {
        "self_share": {k[:-len(".self_ms")]: round(v / metrics["trace.wall_ms"], 4)
                       for k, v in sorted(metrics.items()) if k.endswith(".self_ms")},
        "by_command_ms": by_command,
    }
    return metrics, where


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2])
    else:
        _, _, name, seed, seconds, trace, pass_ops = sys.argv
        run(name, int(seed), float(seconds), trace == "1", int(pass_ops))
