"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import client
from workloads import WORKLOADS, Op

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace", [("ladder", "0"), ("crosscheck", "0"), ("geometry", "0"), ("geometry", "1")]
)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--pass-ops", "4", "--probes", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 4 * report["passes"] and 0 <= result["failed"] <= result["attempted"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert report["readme_identical"] and report["host"]["blas_threads"] == 1
    if trace == "1":
        share = result["metrics"]["trace.accounted_share"]["value"]
        assert 0.95 <= share <= 1.0 + 1e-9


def test_failing_ops_are_counted_not_raised():
    cli = client._import_cli()

    def main(argv):
        if argv[0] == "raise":
            raise RuntimeError("boom")
        if "--L0=1.0" in argv:  # answers for another defect
            argv = [a.replace("--xi=2.0", "--xi=2.1") for a in argv]
        return cli.main(argv)

    readme = ("--xi=2.0", "--rho=0.9", "-n", "2")
    ops = [
        Op(("spectrum", *readme), ()),
        Op(("spectrum", "--bogus=1"), ()),
        Op(("spectrum", "--xi=2.0", "-n", "0"), ()),
        Op(("spectrum", "--solver=det", "--k-max=1", "-n", "8"), ()),
        Op(("oracle-compare", "--theta-plus=3.1716", "--theta-minus=1.0", "-n", "3", "--n-interior=64"), ()),
        Op(("raise",), ()),
        Op(("spectrum", *readme, "--L0=1.0"), ()),
    ]
    result = client.run_pass(main, ops)
    assert len(result.latencies) == len(ops)
    assert result.failures == {"exit1": 1, "exit2": 2, "exit3": 1, "exception": 1, "check": 1}
    assert [e["op"] for e in result.examples] == [1, 2, 3, 4, 5, 6]


def test_inputs_come_from_the_seed():
    for wl in WORKLOADS.values():
        a, b, c = wl.ops(7, 30), wl.ops(7, 30), wl.ops(8, 30)
        assert a == b and a != c
        for op in a:
            for item in op.argv[1:]:
                if item.startswith("--") and "=" in item:
                    value = item.split("=", 1)[1]
                    assert "float64" not in value


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""
