"""End-to-end and per-layer benchmark of the expconvex CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/expconvex``; nothing
needs installing.  Inputs are made from --seed under ``.bench_work/`` at
the checkout root.  Set-up time is the median over several fresh
interpreters of the time until ``expconvex.cli`` is imported, scaled by
fresh starts that import only numpy and the standard library.  The ops run
in one fresh workload process (see child.py), one client in a closed loop,
with BLAS pinned to one thread.  Every op's output is checked.  Op
latencies are scaled to a reference machine speed measured next to each op
(see speed.py); raw wall times are printed alongside.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
computed from the span file the traced phase writes, and the tracing
overhead.  Lines before it report the environment, the inputs, the
failure breakdown and the probe outcomes (workloads.py) that do not fit
in the JSON object.
"""

from __future__ import annotations

import os

# set before numpy is imported here, and inherited by every child
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import speed  # noqa: E402
from tracing import layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_STARTS = 5
IMPORT_PROFILE_STARTS = 3
IMPORT_GROUPS = ("expconvex", "numpy", "scipy")

READY = (
    "import sys, time; sys.path.insert(0, {src!r}); import expconvex.cli; "
    "sys.stdout.write(repr(time.monotonic()))"
)
# Fresh starts that import only numpy and the standard library, alternated
# with the program's, measure how fast the machine starts interpreters and
# imports just then; the program cannot move them.
REFERENCE_READY = (
    "import sys, time; import numpy, json, email.parser, http.client, decimal, "
    "argparse, xml.dom.minidom, unittest; sys.stdout.write(repr(time.monotonic()))"
)
# about the reference start's time on the machine the benchmark was written on
REFERENCE_START_S = 0.2


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fresh_start_seconds(code: str) -> float:
    """Seconds from starting an interpreter until `code` writes the clock."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, check=True,
    )
    return float(proc.stdout) - start


def measure_setup() -> tuple[float, list[float], list[float]]:
    """setup_s at the reference speed, and the raw program and reference starts.

    Import time did not follow the numeric speed index (speed.py), but it
    follows the time of a reference start made next to it: on a shared
    2-vCPU virtual machine the raw median of 5 starts spread 24% between
    runs (quartile distance over median), the ratio 7%.
    """
    program, reference = [], []
    for _ in range(SETUP_STARTS):
        reference.append(fresh_start_seconds(REFERENCE_READY))
        program.append(fresh_start_seconds(READY.format(src=SRC)))
    setup = statistics.median(program) * REFERENCE_START_S / statistics.median(reference)
    return setup, program, reference


def import_profile() -> dict[str, float]:
    """Seconds of import self time per top-level package, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", READY.format(src=SRC)],
        capture_output=True, text=True, timeout=30, check=True,
    )
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return totals


def latency_summary(records: list[list], speed_samples) -> dict:
    """Median and tail op latency, a failed op counting as +inf.

    p50_ms and tail_ms scale each op to the reference speed by the speed
    samples nearest it (speed.py); raw_p50_ms and raw_tail_ms are wall
    times as measured.
    """
    scales = speed.scales(speed_samples, [r[4] for r in records])
    raw = sorted(r[1] * 1e3 if r[2] == "ok" else math.inf for r in records)
    lat = sorted(r[1] * 1e3 * c if r[2] == "ok" else math.inf for r, c in zip(records, scales))
    out = {"ops": len(lat), "p50_ms": statistics.median(lat), "raw_p50_ms": statistics.median(raw)}
    # the highest percentile that has ten samples beyond it; the slowest op
    # when a run is too short to have one
    k = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    out.update(tail_ms=lat[k], raw_tail_ms=raw[k], tail_pct=100.0 * (k + 1) / len(lat),
               beyond=len(lat) - 1 - k)
    return out


def failure_summary(records: list[list]) -> tuple[int, int, Counter]:
    failed = [r for r in records if r[2] != "ok"]
    wrong = sum(1 for r in failed if r[2] == "wrong")
    return len(failed), wrong, Counter(r[3] for r in failed)


def report_probe(workload, probe: list[list]) -> tuple[int, int]:
    """Print the probe ops' outcomes by size; (failed, wrong) probe ops."""
    failed = [p for p in probe if p[1] != "ok"]
    wrong = sum(1 for p in failed if p[1] == "wrong")
    by_n = Counter(workload.probe_draws[p[0]][0] for p in failed)
    tried = Counter(workload.probe_draws[p[0]][0] for p in probe)
    print(f"probe: {workload.probe_ops[0][0]} once per pair, untimed, not counted as attempted: "
          + ", ".join(f"n={n}: {by_n[n]} of {tried[n]} failed" for n in sorted(tried)))
    for reason, count in Counter(p[2] for p in failed).most_common():
        line("failed probe ops", count, "ops", reason)
    if any("exp range" in p[2] for p in failed):
        print("known defect: growth_exponents overflows on the package's own ensemble at "
              "large n and the CLI reports it as a usage error (exit 1); ROADMAP item 3")
    return len(failed), wrong


def run_child(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    spec = {
        "root": ROOT,
        "workload": workload,
        "seed": seed,
        "workdir": workdir,
        "seconds": seconds,
        "trace": trace,
        "spans": os.path.join(workdir, "spans.jsonl"),
        "result": os.path.join(workdir, "result.json"),
    }
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        timeout=2 * seconds + 90, check=True,
    )
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["spans_path"] = spec["spans"]
    return result


def environment(blas: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_threads": blas["threads"],
        "blas_env": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<32} {value!s:>14} {unit:<9} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "expconvex", "cli.py")):
        print(f"error: no expconvex sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.generate()

    if args.trace:
        profiles = [import_profile() for _ in range(IMPORT_PROFILE_STARTS)]
    else:
        setup, starts, reference_starts = measure_setup()

    result = run_child(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    phases = result["phases"]
    records = [r for phase in phases.values() for r in phase["records"]]
    failed, wrong, reasons = failure_summary(records)

    print(f"benchmark: expconvex cli, workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; one client, closed loop")
    print("environment:", json.dumps(environment(result["blas"]), sort_keys=True))
    print("inputs:", json.dumps({"seed": args.seed, **workload.inputs}, sort_keys=True))

    if args.trace:
        untraced = latency_summary(phases["untraced"]["records"], phases["untraced"]["speed"])
        traced = latency_summary(phases["traced"]["records"], phases["traced"]["speed"])
        ops = traced["ops"]
        measured = layer_metrics(read_spans(result["spans_path"]), ops)
        for group in IMPORT_GROUPS:
            measured[f"import.{group}_s"] = statistics.median(p[group] for p in profiles)
        measured["trace.overhead_ms"] = traced["p50_ms"] - untraced["p50_ms"]
        probe = result["probe"]
        measured["transform.growth.probe_failed_share"] = (
            sum(1 for p in probe if p[1] != "ok") / len(probe) if probe else 0.0)
        units = declared_metrics("per_layer")
        metrics = {name: measured[name] for name in units}
        for name, lat in (("untraced", untraced), ("traced", traced)):
            line(f"latency_p50_ms {name}", f"{lat['p50_ms']:.4f}", "ms",
                 f"raw {lat['raw_p50_ms']:.4f} ms; {lat['ops']} ops")
        line("tracing overhead", f"{metrics['trace.overhead_ms']:.4f}", "ms", "traced - untraced p50")
    else:
        lat = latency_summary(records, phases["untraced"]["speed"])
        metrics = {
            "setup_s": setup,
            "latency_p50_ms": lat["p50_ms"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = declared_metrics("end_to_end")
        line("setup_s", f"{setup:.4f}", "s",
             f"raw median of {SETUP_STARTS} fresh starts {statistics.median(starts):.4f} s: "
             + ", ".join(f"{s:.3f}" for s in starts))
        line("reference start", f"{statistics.median(reference_starts):.4f}", "s",
             f"numpy and stdlib only; reference {REFERENCE_START_S:g} s")
        line("latency_p50_ms", f"{lat['p50_ms']:.4f}", "ms",
             f"raw {lat['raw_p50_ms']:.4f} ms; {lat['ops']} ops; failed ops count as +inf")
        line("latency_tail_ms", f"{lat['tail_ms']:.4f}", "ms",
             f"raw {lat['raw_tail_ms']:.4f} ms; p{lat['tail_pct']:.2f}, "
             f"{lat['beyond']} of {lat['ops']} ops beyond it")
        line("failed_share", f"{failed / len(records):.4f}", "share", f"{failed} of {len(records)} ops")
        line("peak_rss_mb", f"{metrics['peak_rss_mb']:.2f}", "MB", "workload process")
        line("speed index", f"{speed.index(phases['untraced']['speed']) * 1e3:.4f}", "ms",
             f"median over the run; reference {speed.REFERENCE_INDEX_S * 1e3:g} ms")

    for reason, count in reasons.most_common():
        line("failed ops", count, "ops", reason)
    if hasattr(workload, "draws") and failed:
        by_n = Counter(workload.draws[r[0]][0] for r in records if r[2] != "ok")
        tried = Counter(workload.draws[r[0]][0] for r in records)
        print("failed ops by n:", ", ".join(f"n={n}: {by_n[n]} of {tried[n]}" for n in sorted(tried)))
    probe_failed = probe_wrong = 0
    if workload.probe_ops:
        probe_failed, probe_wrong = report_probe(workload, result["probe"])
    correct = wrong == 0 and probe_wrong == 0
    print(f"check: {'correct' if correct else 'WRONG'}: {wrong} ops returned a wrong verdict "
          f"or output, {failed - wrong} ops ended in an error; probe: {probe_wrong} wrong, "
          f"{probe_failed - probe_wrong} errors")
    if args.trace:
        print(f"per-layer metrics, per op over {ops} traced ops, from {result['spans_path']}:")
        for name, value in metrics.items():
            line(name, f"{value:.6g}", units[name])

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
