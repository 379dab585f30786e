"""Workload definitions: seeded inputs, the argv of each op, and output checks.

Every op is one ``expconvex.cli.main(argv)`` call.  Inputs are made from
the workload seed before anything is timed and handed to the program only
as argv and pair files, so the program under test never sees the seed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

ENSEMBLE_LAW = (
    "expconvex.verify.random_rank_one_pair: A = lambda v v* with lambda uniform on "
    "[-3, 3] resampled until |lambda| >= 0.1 and v a normalized complex Gaussian "
    "vector; B = (G + G*)/2 with G an n x n standard complex Gaussian"
)

VERIFY_CASES = 10
VERIFY_MAX_N = 7
VERIFY_SEED_POOL = 64
CHECK_EC_SIZES = (64, 128, 256)
CHECK_EC_PAIRS_PER_SIZE = 12
# At n <= 8 growth_exponents cannot overflow: its far point t = 80/||A||_max
# puts the top eigenvalue of tA + B near 80 n at most, below the exp range.
FIT_SIZES = (2, 4, 6, 8)
FIT_PAIRS_PER_SIZE = 96
# Sizes where it does overflow on most pairs (ROADMAP item 3).  Timed ops
# must not fail, so these pairs are run once per run, untimed, as a probe
# that reports the defect; see FitMeasure.
FIT_PROBE_SIZES = (32, 64)
FIT_PROBE_PAIRS_PER_SIZE = 12
HOLDOUT_LIMIT = 1e-3

# exit codes of the CLI that state a verdict (rank check failed, numerical
# check failed); on these inputs the theorem says neither can happen.
VERDICT_EXITS = (2, 3)


def rank_one_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw (A, B) by the package's documented ensemble law.

    Same draws in the same order as ``expconvex.verify.random_rank_one_pair``
    (a test holds the two equal), kept here so that input generation does
    not depend on the package's internal types.
    """
    lam = float(rng.uniform(-3.0, 3.0))
    while abs(lam) < 0.1:
        lam = float(rng.uniform(-3.0, 3.0))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    a = lam * np.outer(v, v.conj())
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g + g.conj().T) / 2.0
    return a, b


def _matrix_doc(m: np.ndarray) -> dict:
    return {
        "n": int(m.shape[0]),
        "entries": np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist(),
    }


def write_pair(path: str, a: np.ndarray, b: np.ndarray) -> None:
    """Write a pair file in the format the CLI documents."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"A": _matrix_doc(a), "B": _matrix_doc(b)}))


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op.

    kind is "ok", "error" (the op raised or exited 1/4 without a verdict)
    or "wrong" (a verdict or an output that contradicts what the program
    must return on these inputs).  Both "error" and "wrong" count as failed.
    """

    kind: str
    reason: str = ""


OK = Outcome("ok")


def _exit_outcome(rc: int, stderr: str) -> Outcome:
    first = stderr.strip().splitlines()[0] if stderr.strip() else ""
    # numbers vary from input to input; the message class does not
    message = re.sub(r"-?\d[\d.e+-]*", "#", first)[:120]
    kind = "wrong" if rc in VERDICT_EXITS else "error"
    return Outcome(kind, f"exit {rc}: {message}")


class Workload:
    """A named set of ops, made from a seed, with a check for each op's output.

    Input files, if the ops need any, go in the given work directory.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ops: list[list[str]] = []
        # run once, untimed, after the timed ops; not counted as attempted
        self.probe_ops: list[list[str]] = []
        self.inputs: dict = {}

    def generate(self) -> None:
        """Write the input files the ops name; none by default."""

    def warmup_ops(self) -> list[list[str]]:
        """One op of each input size, run untimed before measuring."""
        return self.ops[:1]

    def check(self, index: int, rc: int, stdout: str, stderr: str) -> Outcome:
        """The outcome of op `index` of ops, or of probe_ops for a probe op."""
        raise NotImplementedError


class VerifyEnsemble(Workload):
    name = "verify-ensemble"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 0])
        self.op_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=VERIFY_SEED_POOL)]
        self.ops = [
            ["verify", "--cases", str(VERIFY_CASES), "--max-n", str(VERIFY_MAX_N), "--seed", str(s)]
            for s in self.op_seeds
        ]
        self.inputs = {
            "law": "expconvex verify ensemble (case rng = default_rng([s, case]))",
            "cases_per_op": VERIFY_CASES,
            "max_n": VERIFY_MAX_N,
            "op_seed_law": "numpy default_rng([seed, 0]).integers(0, 2**31 - 1, 64)",
            "op_seeds": self.op_seeds,
        }
        self._reports: dict[int, str] = {}

    def check(self, index, rc, stdout, stderr):
        if rc != 0:
            return _exit_outcome(rc, stderr)
        try:
            doc = json.loads(stdout)
            failures = doc["summary"]["failures"]
            records = len(doc["records"])
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome("wrong", f"unreadable report: {type(exc).__name__}")
        if failures != 0:
            return Outcome("wrong", "summary.failures != 0")
        if records != 10 * VERIFY_CASES or doc["summary"]["records"] != records:
            return Outcome("wrong", f"{records} records, expected {10 * VERIFY_CASES}")
        first = self._reports.setdefault(index, stdout)
        if first != stdout:
            return Outcome("wrong", "report bytes differ between runs of one seed")
        return OK


class _PairWorkload(Workload):
    sizes: tuple = ()
    per_size = 0
    probe_sizes: tuple = ()
    probe_per_size = 0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        # sizes interleaved, so cycling over the ops runs each size equally often
        self.draws = [(n, k) for k in range(self.per_size) for n in self.sizes]
        self.files = [os.path.join(workdir, f"pair-n{n}-k{k}.json") for n, k in self.draws]
        self.probe_draws = [(n, k) for n in self.probe_sizes for k in range(self.probe_per_size)]
        self.probe_files = [
            os.path.join(workdir, f"probe-n{n}-k{k}.json") for n, k in self.probe_draws
        ]
        self.inputs = {
            "law": ENSEMBLE_LAW,
            "pair_rng": "numpy default_rng([seed, n, k])",
            "sizes": list(self.sizes),
            "pairs_per_size": self.per_size,
        }
        if self.probe_sizes:
            self.inputs.update(probe_sizes=list(self.probe_sizes),
                               probe_pairs_per_size=self.probe_per_size)

    def generate(self):
        for (n, k), path in zip(self.draws + self.probe_draws, self.files + self.probe_files):
            write_pair(path, *rank_one_pair(np.random.default_rng([self.seed, n, k]), n))

    def warmup_ops(self):
        return self.ops[: len(self.sizes)]


class CheckEcLarge(_PairWorkload):
    name = "check-ec-large"
    sizes = CHECK_EC_SIZES
    per_size = CHECK_EC_PAIRS_PER_SIZE

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.ops = [["check-ec", path, "--grid-n", "8"] for path in self.files]

    def check(self, index, rc, stdout, stderr):
        if rc != 0:
            return _exit_outcome(rc, stderr)
        try:
            passed = json.loads(stdout)["passed"]
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome("wrong", f"unreadable report: {type(exc).__name__}")
        return OK if passed is True else Outcome("wrong", "passed is not true")


class FitMeasure(_PairWorkload):
    """fit-measure on pairs of sizes where it succeeds, plus an overflow probe.

    The probe runs fit-measure once on each pair of FIT_PROBE_SIZES and
    reports how many exit on the growth_exponents overflow; the fix of
    ROADMAP item 3 takes that share to 0.
    """

    name = "fit-measure"
    sizes = FIT_SIZES
    per_size = FIT_PAIRS_PER_SIZE
    probe_sizes = FIT_PROBE_SIZES
    probe_per_size = FIT_PROBE_PAIRS_PER_SIZE

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.ops = [["fit-measure", path] for path in self.files]
        self.probe_ops = [["fit-measure", path] for path in self.probe_files]

    def check(self, index, rc, stdout, stderr):
        if rc != 0:
            return _exit_outcome(rc, stderr)
        try:
            err = float(json.loads(stdout)["holdout_error"])
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome("wrong", f"unreadable report: {type(exc).__name__}")
        return OK if err <= HOLDOUT_LIMIT else Outcome("wrong", f"holdout error {err:.3g}")


WORKLOADS = {w.name: w for w in (VerifyEnsemble, CheckEcLarge, FitMeasure)}
