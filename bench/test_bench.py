"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The smoke runs take about a minute in all.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import child
import run
from speed import SpeedIndex
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, CheckEcLarge, rank_one_pair, write_pair

sys.path.insert(0, run.SRC)

from expconvex import cli, verify  # noqa: E402
from expconvex.hermitian import validate_hermitian  # noqa: E402


def declared(kind: str) -> dict[str, str]:
    return run.declared_metrics(kind)


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {"setup_s", "latency_p50_ms"} <= set(declared("end_to_end"))


@pytest.mark.parametrize("n", [2, 5, 64])
def test_ensemble_law_matches_package(n):
    a, b = rank_one_pair(np.random.default_rng([7, n]), n)
    pair = verify.random_rank_one_pair(np.random.default_rng([7, n]), n)
    np.testing.assert_array_equal(validate_hermitian(a).mat, pair.A.mat)
    np.testing.assert_array_equal(validate_hermitian(b).mat, pair.B.mat)


class _ExitWith:
    """A stand-in for the cli module whose main returns a fixed exit code."""

    def __init__(self, code: int, message: str = ""):
        self.code, self.message = code, message

    def main(self, argv):
        print(self.message, file=sys.stderr)
        return self.code


def test_planted_wrong_verdict_counts_as_failed(tmp_path):
    workload = CheckEcLarge(0, str(tmp_path))
    samples = SpeedIndex()
    records = child.measure(workload, _ExitWith(3, "error: check failed"), 0.05, samples)
    assert records and all(r[2] == "wrong" for r in records)
    failed, wrong, reasons = run.failure_summary(records)
    assert failed == wrong == len(records)
    assert list(reasons) == ["exit 3: error: check failed"]
    assert math.isinf(run.latency_summary(records, samples.samples)["p50_ms"])


def test_error_exit_is_failed_but_not_wrong(tmp_path):
    workload = CheckEcLarge(0, str(tmp_path))
    records = child.measure(workload, _ExitWith(1, "error: overflow at t = 12.5"), 0.05, SpeedIndex())
    failed, wrong, reasons = run.failure_summary(records)
    assert failed == len(records) and wrong == 0
    assert list(reasons) == ["exit 1: error: overflow at t = #"]


def test_wrong_output_with_exit_zero_is_wrong(tmp_path):
    workload = CheckEcLarge(0, str(tmp_path))
    outcome = workload.check(0, 0, json.dumps({"passed": False}), "")
    assert outcome.kind == "wrong"


def test_trace_counts_default_grid_duplicates(tmp_path):
    path = str(tmp_path / "pair.json")
    write_pair(path, *rank_one_pair(np.random.default_rng(0), 4))
    originals = (cli.main, verify.trace_f)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        rc, _, out, _, exc = child.run_op(cli, ["check-ec", path])
    finally:
        tracer.uninstall()
    assert exc is None and rc == 0 and json.loads(out)["passed"]
    assert (cli.main, verify.trace_f) == originals

    spans = [[sid, *rec] for sid, rec in enumerate(tracer.spans)]
    assert spans[0][2] == "cli.main" and spans[0][1] == -1
    m = layer_metrics(spans, ops=1)
    # 36 Gram entries on the 8-point grid, 15 distinct sums t_r + t_s
    assert m["transform.eval.points"] == 36
    assert m["transform.eval.dup_share"] == pytest.approx(21 / 36)
    assert m["convexity.psd.calls"] == 1
    assert m["matrixio.load.bytes"] == os.path.getsize(path)
    assert m["transform.fit.self_s"] == 0.0
    assert all(m[f"{g}.self_s"] >= 0.0 for g in ("cli.main", "transform.eval", "matrixio.load"))


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    units = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    report = "\n".join(lines[:-1])
    for name in units:
        assert name in report
    for word in ("environment:", "inputs:", "check:"):
        assert word in report
    if trace == "0":
        assert "latency_tail_ms" in report and "failed_share" in report
    else:
        assert "tracing overhead" in report
    if getattr(WORKLOADS[workload], "probe_sizes", ()):
        assert "probe:" in report


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "verify-ensemble", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
