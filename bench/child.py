"""The workload process: one client calling ``expconvex.cli.main`` in a closed loop.

Run by ``run.py`` in a fresh interpreter, so that its peak resident memory
is that of the workload alone.  It imports expconvex from the checkout's
``src``, runs one untimed op of each input size, then measures ops for the
given time, checking each op's output outside the timed region and
sampling the machine-speed index (speed.py) between ops.  With tracing
on, a second timed phase runs with span wrappers installed.  Last, with
no wrappers and no timer, it runs the workload's probe ops once each.

    python3 bench/child.py SPEC.json

SPEC names the checkout root, workload, seed, work directory, seconds,
trace flag and result path; the result is written there as JSON.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time

from speed import SpeedIndex
from workloads import WORKLOADS, Outcome

CALIBRATE_EVERY_S = 0.05


def run_op(cli, argv: list[str]):
    """One op: (exit code or None, seconds, stdout, stderr, exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # a raising op is a failed op, not a crash of the benchmark
        exc = e
    seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue(), exc


def measure(workload, cli, seconds: float, speed: SpeedIndex, tracer=None) -> list[list]:
    """Run ops for `seconds`; one record [op index, seconds, kind, reason, end] per op.

    Between ops, once CALIBRATE_EVERY_S has passed since its last sample,
    the speed index takes another, outside every op's timer.
    """
    records: list[list] = []
    start = calibrated = time.perf_counter()
    speed.sample()
    while time.perf_counter() - start < seconds:
        index = len(records) % len(workload.ops)
        if tracer is not None:
            tracer.begin_op(len(records))
        rc, dt, out, err, exc = run_op(cli, workload.ops[index])
        if exc is not None:
            outcome = Outcome("error", f"raised {type(exc).__name__}")
        else:
            outcome = workload.check(index, rc, out, err)
        records.append([index, dt, outcome.kind, outcome.reason, time.perf_counter()])
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            speed.sample()
            calibrated = time.perf_counter()
    return records


def blas_info() -> dict:
    """BLAS library name and thread count, as far as numpy reveals them."""
    import numpy as np

    info = {"name": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import expconvex
    from expconvex import cli

    if os.path.commonpath([os.path.abspath(expconvex.__file__), src]) != src:
        print(f"error: expconvex imported from {expconvex.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["workdir"])
    for argv in workload.warmup_ops():
        run_op(cli, argv)

    phases = {}

    def phase(name: str, seconds: float, tracer=None) -> None:
        speed = SpeedIndex()
        records = measure(workload, cli, seconds, speed, tracer)
        phases[name] = {"records": records, "speed": speed.samples}

    if spec["trace"]:
        from tracing import Tracer

        phase("untraced", spec["seconds"] / 2)
        tracer = Tracer()
        tracer.install()
        try:
            phase("traced", spec["seconds"] / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spec["spans"])
    else:
        phase("untraced", spec["seconds"])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probe = []
    for index, argv in enumerate(workload.probe_ops):
        rc, _, out, err, exc = run_op(cli, argv)
        outcome = (Outcome("error", f"raised {type(exc).__name__}") if exc is not None
                   else workload.check(index, rc, out, err))
        probe.append([index, outcome.kind, outcome.reason])

    result = {
        "phases": phases,
        "probe": probe,
        "peak_rss_kb": peak_rss_kb,
        "blas": blas_info(),
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
