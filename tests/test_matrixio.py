"""Tests for the JSON matrix interchange format and report serializers."""

import json

import numpy as np
import pytest

from expconvex import (
    MatrixFileError,
    ScalarFunction,
    TGrid,
    check_exponential_convexity,
    gram,
    hermitian_from_diag,
    psd_check,
    reduce,
    reduction_residuals,
    validate_hermitian,
)
from expconvex.matrixio import (
    dumps_doc,
    ec_report_to_doc,
    fit_to_doc,
    load_matrix,
    load_pair,
    matrix_from_doc,
    matrix_to_doc,
    measure_to_doc,
    reduction_to_doc,
    write_doc,
)
from expconvex.transform import AtomicMeasure, MeasureFit


def test_matrix_doc_round_trip():
    m = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, -4.0]])
    doc = matrix_to_doc(m)
    assert doc["n"] == 2
    assert doc["entries"][1] == [2.0, 3.0]
    back = matrix_from_doc(doc)
    assert np.array_equal(back, m)


def test_matrix_to_doc_rejects_nonsquare():
    with pytest.raises(ValueError):
        matrix_to_doc(np.ones((2, 3)))


def test_matrix_from_doc_structural_errors():
    with pytest.raises(MatrixFileError, match="expected an object"):
        matrix_from_doc([1, 2])
    with pytest.raises(MatrixFileError, match="missing key 'n'"):
        matrix_from_doc({"entries": []})
    with pytest.raises(MatrixFileError, match="positive integer"):
        matrix_from_doc({"n": 0, "entries": []})
    with pytest.raises(MatrixFileError, match="positive integer"):
        matrix_from_doc({"n": True, "entries": [[1, 0]]})
    with pytest.raises(MatrixFileError, match="missing key 'entries'"):
        matrix_from_doc({"n": 1})
    with pytest.raises(MatrixFileError, match="expected 4 entries for n = 2, got 3"):
        matrix_from_doc({"n": 2, "entries": [[1, 0], [0, 0], [0, 0]]})


def test_matrix_from_doc_entry_errors_are_positional():
    doc = {"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0, 0]]}
    with pytest.raises(MatrixFileError, match=r"entry 3 \(row 1, col 1\)"):
        matrix_from_doc(doc)

    doc = {"n": 2, "entries": [[1, 0], ["x", 0], [0, 0], [1, 0]]}
    with pytest.raises(MatrixFileError, match=r"entry 1 \(row 0, col 1\)"):
        matrix_from_doc(doc)

    doc = {"n": 1, "entries": [[True, 0]]}
    with pytest.raises(MatrixFileError, match="must be numbers"):
        matrix_from_doc(doc)


def test_matrix_from_doc_rejects_nonfinite():
    doc = json.loads('{"n": 1, "entries": [[NaN, 0]]}')
    with pytest.raises(MatrixFileError, match="non-finite"):
        matrix_from_doc(doc)


def test_load_matrix_and_pair(tmp_path):
    single = tmp_path / "m.json"
    single.write_text(json.dumps({"n": 1, "entries": [[2.5, 0]]}))
    m = load_matrix(str(single))
    assert m[0, 0] == 2.5

    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({
        "A": {"n": 1, "entries": [[1, 0]]},
        "B": {"n": 1, "entries": [[0, 0]]},
    }))
    a, b = load_pair(str(pair_file))
    assert a[0, 0] == 1.0 and b[0, 0] == 0.0


def test_load_pair_requires_both_keys(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"A": {"n": 1, "entries": [[1, 0]]}}))
    with pytest.raises(MatrixFileError, match="missing key 'B'"):
        load_pair(str(f))


def test_load_pair_shape_mismatch(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "A": {"n": 1, "entries": [[1, 0]]},
        "B": {"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    }))
    with pytest.raises(MatrixFileError, match="1x1 but B is 2x2"):
        load_pair(str(f))


def test_load_reports_json_position(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"A": {"n": 2, ')
    with pytest.raises(MatrixFileError, match="line 1, column"):
        load_pair(str(f))


def test_load_missing_file():
    with pytest.raises(MatrixFileError):
        load_matrix("/nonexistent/nowhere.json")


def test_dumps_doc_deterministic():
    doc = {"b": 1, "a": [1.5, 2.25]}
    s1 = dumps_doc(doc)
    s2 = dumps_doc({"a": [1.5, 2.25], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


def test_write_doc_round_trip(tmp_path):
    p = tmp_path / "out.json"
    write_doc(str(p), {"x": [1, 2, 3]})
    assert json.loads(p.read_text()) == {"x": [1, 2, 3]}


def test_reduction_doc_contains_all_pieces():
    a = hermitian_from_diag([0.0, 1.0])
    b = validate_hermitian(np.array([[1.0, 1j], [-1j, 3.0]]))
    red = reduce(a, b)
    doc = reduction_to_doc(red, reduction_residuals(a, b, red))
    m = matrix_from_doc(doc["M"])
    assert np.allclose(m, [[1.0, 1.0], [1.0, 3.0]])
    assert doc["residuals"]["wavw_minus_l"] <= 1e-10
    for key in ("U", "B_block", "b_col", "mu_n", "V_block", "M_block",
                "g", "omegas", "Omega", "W_block", "g_abs"):
        assert key in doc["trace"]
    # the serialized doc is valid JSON end to end
    json.loads(dumps_doc(doc))


def test_measure_and_fit_docs():
    m = AtomicMeasure.from_atoms([(0.0, 1.0), (1.0, 2.0)])
    doc = measure_to_doc(m)
    assert doc["atoms"] == [[0.0, 1.0], [1.0, 2.0]]
    assert doc["total_mass"] == 3.0

    fit = MeasureFit(measure=m, grid_resolution=5, training_residual=0.1, holdout_error=0.01)
    fdoc = fit_to_doc(fit)
    assert fdoc["grid_resolution"] == 5
    assert fdoc["measure"]["total_mass"] == 3.0


def test_ec_report_doc_witness_only_on_failure():
    grid = TGrid(np.array([-1.0, 0.0, 1.0]))
    good = ScalarFunction(fn=np.exp, label="exp")
    rep = check_exponential_convexity(good, grid)
    doc = ec_report_to_doc(rep, "exp", grid.points)
    assert doc["passed"] is True
    assert doc["witness"] is None

    bad = ScalarFunction(fn=lambda t: np.exp(-t * t), label="gauss")
    rep = psd_check(gram(bad, grid))
    doc = ec_report_to_doc(rep, "gauss", grid.points)
    assert doc["passed"] is False
    assert len(doc["witness"]) == 3
