"""Tests for the seeded ensemble runner and its deterministic reports."""

import numpy as np
import pytest

from expconvex import TracePair, hermitian_from_diag, run_case, run_verification, random_rank_one_pair
from expconvex import verify
from expconvex.matrixio import dumps_doc

# the checks of one case, in record order
CHECK_ORDER = [
    "reduce_wavw_l",
    "reduce_wbw_m",
    "reduce_offdiag_min",
    "trace_invariance",
    "ec_gram_uniform",
    "ec_gram_random",
    "lie_ratio",
    "roundtrip_transform",
    "roundtrip_mass",
    "growth_exponents",
]
EXPECTED_CHECKS = set(CHECK_ORDER)


def test_random_pair_is_rank_one_with_bounded_lambda():
    for i in range(20):
        rng = np.random.default_rng([99, i])
        n = int(rng.integers(2, 8))
        pair = random_rank_one_pair(rng, n)
        w = np.linalg.eigvalsh(pair.A.mat)
        big = w[np.abs(w) > 1e-9]
        assert big.size == 1
        assert 0.1 <= abs(big[0]) <= 3.0
        assert np.allclose(pair.B.mat, pair.B.mat.conj().T)


def test_run_case_names_and_passes():
    records = run_case(0, 3, max_n=7)
    assert {r.check for r in records} == EXPECTED_CHECKS
    assert all(r.passed for r in records)
    assert all(r.seed == (0, 3) for r in records)


def test_run_case_deterministic():
    r1 = run_case(7, 11, max_n=6)
    r2 = run_case(7, 11, max_n=6)
    assert [(r.check, r.metric) for r in r1] == [(r.check, r.metric) for r in r2]


def test_run_verification_counts_and_summary():
    report = run_verification(cases=5, max_n=5, seed=123)
    assert report.cases == 5
    assert len(report.records) == 5 * len(EXPECTED_CHECKS)
    assert report.failures == 0
    doc = report.to_doc()
    assert doc["summary"]["cases"] == 5
    assert doc["summary"]["records"] == len(report.records)
    assert doc["summary"]["failures"] == 0
    assert "ensemble" in doc
    assert "elapsed" not in dumps_doc(doc)


def test_report_bytes_reproducible():
    d1 = dumps_doc(run_verification(cases=8, max_n=6, seed=7).to_doc())
    d2 = dumps_doc(run_verification(cases=8, max_n=6, seed=7).to_doc())
    assert d1 == d2


def test_report_depends_on_seed():
    d1 = dumps_doc(run_verification(cases=3, max_n=5, seed=1).to_doc())
    d2 = dumps_doc(run_verification(cases=3, max_n=5, seed=2).to_doc())
    assert d1 != d2


def test_run_verification_validates_flags():
    with pytest.raises(ValueError):
        run_verification(cases=0, max_n=5, seed=0)
    with pytest.raises(ValueError):
        run_verification(cases=1, max_n=1, seed=0)
    with pytest.raises(ValueError):
        run_verification(cases=1, max_n=13, seed=0)


def test_run_case_records_checks_in_order():
    assert [r.check for r in run_case(0, 3, max_n=7)] == CHECK_ORDER


# B = b_scale * I and A = diag(0.5, 0, ...): the largest eigenvalue of tA + B is
# b_scale + max(0, t / 2), above EXP_OVERFLOW_LIMIT = 700 from t = 2 at
# b_scale 699.5, from the Gram sums' t = 4 at 699, and only at the growth
# check's far point t = 160 at 650
@pytest.mark.parametrize("b_scale, recorded", [(650.0, 9), (699.0, 4), (699.5, 3)])
def test_case_error_is_recorded_by_the_check_that_raises_it(monkeypatch, b_scale, recorded):
    def pair(rng, n):
        return TracePair(
            hermitian_from_diag([0.5] + [0.0] * (n - 1)), hermitian_from_diag([b_scale] * n)
        )

    monkeypatch.setattr(verify, "random_rank_one_pair", pair)
    for index in range(3):
        # names and the error type only: metrics and passed flags may change with the checks
        names = [r.check for r in run_case(0, index, max_n=7)]
        assert names == CHECK_ORDER[:recorded] + ["case_error(Overflow)"]


def _count_calls(monkeypatch, name):
    shapes = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_run_case_evaluates_every_trace_value_in_one_eigvalsh_call(monkeypatch):
    shapes = _count_calls(monkeypatch, "eigvalsh")
    for index in range(4):
        records = run_case(0, index, max_n=7)
        assert [r.check for r in records] == CHECK_ORDER
        # 11 + 26 + distinct random sums + 4 far points, 11 for (L, M), 12 for (L, diag M)
        assert len(shapes) == 1 and 11 + 26 + 4 + 11 + 12 < shapes[0][0] <= 100
        shapes.clear()


def test_run_case_takes_the_lie_exponentials_from_one_stacked_eigh(monkeypatch):
    shapes = _count_calls(monkeypatch, "eigh")
    for index in range(4):
        records = run_case(0, index, max_n=7)
        n = records[0].n
        # e^{A/64}, e^{B/64}, e^{A+B}, e^{A/128}, e^{B/128} and the growth
        # check's A in one call; the others: A and a block of B in reduce, two
        # Gram matrices, L and its degenerate block in commuting_measure
        assert shapes.count((6, n, n)) == 1
        assert len(shapes) <= 7
        shapes.clear()
