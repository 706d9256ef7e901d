"""Benchmark of the defectline CLI: one closed-loop client per workload.

    python3 bench/run.py --workload <ladder|crosscheck|geometry> --seed N \\
        --seconds S --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory and nothing needs installing.  The workloads, their op
mixes and why each was chosen are in ``workloads.py``; the output checks are
in ``checks.py``; the closed loop itself is ``client.py``.

With ``--trace 0`` the run measures, with tracing off:

* ``setup_s``: median over several fresh interpreters of the time from
  launch until ``defectline.cli`` is imported and the workload's smallest
  op has finished (one unmeasured launch first warms the file caches),
  at nominal host speed;
* ``ops_per_s``: ops per second spent in the CLI, over all ops of a pass;
* ``op_ms_p50`` / ``op_ms_p90``: per-op latency over the 100 ops of a pass;
* ``peak_rss_mb``: peak resident memory of the workload process.

A run makes max(2, S // 10) passes over the same seeded ops.  Op latencies
are taken at nominal host speed, against a reference kernel timed next to
every op (``speed.py``), and each op counts with the best of its passes; the
raw figures and the host speed are in the report line.

With ``--trace 1`` it runs the same ops once untraced and once with spans
around every public function of each module, and reports per-layer calls,
inclusive and self time, errors and work counts, the tracing overhead, and
``import.*`` from fresh interpreters under ``-X importtime``.

Every process runs with BLAS and OpenMP threads pinned to 1.  Lines before
the last carry a JSON report (host, input-property shares, failure counts by
category, stdout digest, fail ratio); the last line is the result object
whose metrics are exactly those ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from speed import REF_MS, reference
from workloads import PASS_OPS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CLIENT = os.path.join(BENCH, "client.py")
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _launch(args: list[str], timeout: float, python_flags=()) -> tuple[float | None, str, str, int]:
    """Run a client process; (seconds from launch to its first stdout line, stdout, stderr, code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *python_flags, CLIENT, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
    )
    out: list[str] = []
    err: list[str] = []
    first: list[float] = []

    def read_out():
        for line in proc.stdout:
            if not first:
                first.append(time.perf_counter() - t0)
            out.append(line)

    readers = [threading.Thread(target=read_out), threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    for r in readers:
        r.start()
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"client {args[0]} exceeded {timeout:.0f} s") from None
    finally:
        for r in readers:
            r.join()
    return (first[0] if first else None), "".join(out), "".join(err), code


def _probes(workload: str, count: int, deadline: float, python_flags=()) -> list[tuple[float, float, dict, str]]:
    """Fresh-interpreter set-up probes after one unmeasured launch.

    Each gives (seconds to ready, the same at nominal host speed, its JSON
    line, its stderr); the reference kernel is timed just before and after.
    """
    results = []
    for i in range(count + 1):
        before = min(reference() for _ in range(3))
        ready, out, err, code = _launch(["probe", workload], deadline - time.perf_counter(), python_flags)
        after = min(reference() for _ in range(3))
        if code != 0 or ready is None:
            raise BenchError(f"set-up probe failed with exit code {code}:\n{err[-2000:]}")
        info = json.loads(out.splitlines()[0])
        if info["warmup_exit"] != 0:
            raise BenchError(f"warm-up op exited {info['warmup_exit']}")
        if i:
            results.append((ready, ready * 1e-3 * REF_MS / (0.5 * (before + after)), info, err))
    return results


def _import_layer(probes) -> dict[str, float]:
    """import.* from probes run under -X importtime."""
    calls, total_ms, self_ms = [], [], []
    for _, _, _, err in probes:
        lines = err.splitlines()
        start = lines.index("bench: import defectline.cli") + 1
        rows = []
        for line in lines[start:]:
            if not line.startswith("import time:"):
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            rows.append((int(self_us), int(cum_us), name[1:]))
            if name.strip() == "defectline.cli":
                break
        calls.append(len(rows))
        total_ms.append(sum(cum for _, cum, name in rows if not name.startswith(" ")) / 1e3)
        self_ms.append(sum(s for s, _, name in rows if name.strip().split(".")[0] == "defectline") / 1e3)
    return {
        "import.calls": statistics.median(calls),
        "import.ms": statistics.median(total_ms),
        "import.self_ms": statistics.median(self_ms),
        "import.errors": 0,
        "import.s": statistics.median(info["import_s"] for _, _, info, _ in probes),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, pass_ops: int, n_probes: int) -> tuple[dict, dict]:
    """(result line, report) for one run."""
    deadline = time.perf_counter() + DEADLINE_S
    if trace:
        probes = _probes(workload, n_probes, deadline, ("-X", "importtime"))
        extra = _import_layer(probes)
    else:
        probes = _probes(workload, n_probes, deadline)
        extra = {"setup_s": statistics.median(nominal for _, nominal, _, _ in probes)}
    args = ["run", workload, str(seed), str(seconds), "1" if trace else "0", str(pass_ops)]
    _, out, err, code = _launch(args, deadline - time.perf_counter())
    if code != 0 or not out.strip():
        raise BenchError(f"workload process failed with exit code {code}:\n{err[-2000:]}")
    client = json.loads(out.strip().splitlines()[-1])
    found = {**client["metrics"], **extra}

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in found and not trace:
            raise BenchError(f"metric {m['name']} was not measured")
        # A layer the workload never calls reports zero work and time.
        metrics[m["name"]] = {"value": found.get(m["name"], 0), "unit": m["unit"]}
    report = dict(client["report"], setup_raw_s=[p[0] for p in probes], setup_nominal_s=[p[1] for p in probes])
    result = {"correct": client["correct"], "attempted": client["attempted"],
              "failed": client["failed"], "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="defectline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sizes for the smoke test of the benchmark itself.
    parser.add_argument("--pass-ops", type=int, default=PASS_OPS, help=argparse.SUPPRESS)
    parser.add_argument("--probes", type=int, default=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "defectline", "cli.py")):
        print(f"error: no defectline source under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.pass_ops, args.probes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
