"""End-to-end tests of the command-line interface and its exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from expconvex.cli import main
from expconvex.matrixio import matrix_from_doc


def write_pair(path, a, b):
    def doc(m):
        m = np.asarray(m, dtype=complex)
        return {
            "n": m.shape[0],
            "entries": [[z.real, z.imag] for z in m.reshape(-1)],
        }

    path.write_text(json.dumps({"A": doc(a), "B": doc(b)}))
    return str(path)


@pytest.fixture
def worked_pair(tmp_path):
    return write_pair(
        tmp_path / "pair.json",
        np.diag([0.0, 1.0]),
        np.array([[1.0, 1j], [-1j, 3.0]]),
    )


def test_reduce_worked_example(tmp_path, worked_pair, capsys):
    out = tmp_path / "red.json"
    assert main(["reduce", worked_pair, str(out)]) == 0
    doc = json.loads(out.read_text())
    m = matrix_from_doc(doc["M"])
    assert np.allclose(m, [[1.0, 1.0], [1.0, 3.0]])
    assert "wrote" in capsys.readouterr().out


def test_reduce_rank_two_exits_2(tmp_path, capsys):
    f = write_pair(tmp_path / "r2.json", np.diag([1.0, 2.0]), np.eye(2))
    assert main(["reduce", f, str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    # diagnostic names both offending eigenvalues
    assert "1.0" in err and "2.0" in err


def test_reduce_malformed_file_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"A": {"n": 2, ')
    assert main(["reduce", str(f), str(tmp_path / "o.json")]) == 1
    assert "line 1" in capsys.readouterr().err


def test_reduce_missing_file_exits_1(tmp_path):
    assert main(["reduce", str(tmp_path / "absent.json"), str(tmp_path / "o.json")]) == 1


def test_reduce_non_hermitian_exits_1(tmp_path, capsys):
    f = write_pair(tmp_path / "nh.json", np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    assert main(["reduce", f, str(tmp_path / "o.json")]) == 1


def test_check_ec_passes(worked_pair, capsys):
    assert main(["check-ec", worked_pair]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["witness"] is None
    assert len(doc["grid"]) == 8


def test_check_ec_zero_pair(tmp_path, capsys):
    f = write_pair(tmp_path / "z.json", np.zeros((2, 2)), np.zeros((2, 2)))
    assert main(["check-ec", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_check_ec_flag_validation(worked_pair, capsys):
    assert main(["check-ec", worked_pair, "--grid-n", "0"]) == 1
    assert main(["check-ec", worked_pair, "--grid-lo", "2", "--grid-hi", "-2"]) == 1
    assert main(["check-ec", worked_pair, "--tol", "-1e-8"]) == 1
    capsys.readouterr()


def test_check_ec_tol_flag(tmp_path, capsys):
    f = write_pair(tmp_path / "z.json", np.zeros((2, 2)), np.zeros((2, 2)))
    # Gram of f==2 on 8 points has max entry 2, so tolerance = tol * 2
    assert main(["check-ec", f, "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerance"] == pytest.approx(2e-5)


def test_fit_measure_pauli(tmp_path, capsys):
    f = write_pair(tmp_path / "px.json", np.diag([0.0, 1.0]),
                   np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["fit-measure", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holdout_error"] <= 1e-3
    assert all(w >= 0.0 for _, w in doc["measure"]["atoms"])


def test_fit_measure_commuting_matches_exact_measure(tmp_path, capsys):
    f = write_pair(tmp_path / "cm.json", np.diag([0.0, 1.0]), np.zeros((2, 2)))
    assert main(["fit-measure", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    atoms = doc["measure"]["atoms"]
    locs = np.array([a[0] for a in atoms])
    # exact atoms are (0, 1) and (1, 1); one grid cell at resolution 64
    cell = 1.0 / 63.0
    for true_loc in (0.0, 1.0):
        assert np.abs(locs - true_loc).min() <= cell
    assert abs(doc["measure"]["total_mass"] - 2.0) <= 1e-6


def test_fit_measure_underresolved_exits_3(tmp_path, capsys):
    f = write_pair(tmp_path / "px.json", np.diag([0.0, 1.0]),
                   np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["fit-measure", f, "--resolution", "1"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["holdout_error"] > 1e-3


def test_fit_measure_flag_validation(worked_pair, capsys):
    assert main(["fit-measure", worked_pair, "--resolution", "0"]) == 1
    assert main(["fit-measure", worked_pair, "--t-points", "1"]) == 1
    assert main(["fit-measure", worked_pair, "--reg", "-1"]) == 1
    capsys.readouterr()


def test_fit_measure_without_holdout_sample_exits_1(tmp_path, capsys):
    # samples with index % 3 == 2 are held out: two samples hold none out
    f = write_pair(tmp_path / "px.json", np.diag([0.0, 1.0]),
                   np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["fit-measure", f, "--t-points", "2", "--resolution", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--t-points must be at least 3" in err


@pytest.mark.parametrize("command", ["check-ec", "fit-measure"])
def test_overflow_exits_4_and_names_t(tmp_path, capsys, command):
    # largest eigenvalue of tA + B is near 800 at every point: e^800 overflows
    f = write_pair(tmp_path / "big.json", np.diag([0.0, 1.0]), np.diag([0.0, 800.0]))
    assert main([command, f]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: largest eigenvalue ")
    assert "exceeds exp range at t = " in err


@pytest.mark.parametrize(
    "b_diag, t",
    [((-800.0, -800.0), "40.0"), ((-800.0, -700.0), "-80.0")],
    ids=["t=40", "t=-80"],
)
def test_trace_underflow_exits_4_and_names_t(tmp_path, capsys, b_diag, t):
    # every eigenvalue of tA + B is below -745 at that far point: e^x underflows to 0
    f = write_pair(tmp_path / "small.json", np.diag([0.0, 1.0]), np.diag(b_diag))
    assert main(["fit-measure", f]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ")
    assert err.rstrip().endswith(f"at t = {t}")


def test_check_ec_trace_underflow_exits_4(tmp_path, capsys):
    # f(t) = e^-800 (1 + e^t) is 0.0 in double precision on the whole default grid
    f = write_pair(tmp_path / "small.json", np.diag([0.0, 1.0]), np.diag([-800.0, -800.0]))
    assert main(["check-ec", f]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numerical failure: trace value 0.0 underflows at t = -4.0\n"


@pytest.mark.parametrize("command", ["reduce", "check-ec", "fit-measure"])
def test_huge_integer_entry_exits_1_and_names_entry(tmp_path, capsys, command):
    f = tmp_path / "huge.json"
    f.write_text(
        '{"A": {"n": 1, "entries": [[1' + "0" * 400 + ', 0]]}, "B": {"n": 1, "entries": [[0, 0]]}}'
    )
    argv = [command, str(f)] + ([str(tmp_path / "o.json")] if command == "reduce" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {f}: A: entry 0 (row 0, col 0): number outside double range\n"


@pytest.mark.parametrize("command", ["check-ec", "fit-measure"])
def test_eigensolver_failure_exits_4(worked_pair, capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main([command, worked_pair]) == 4
    assert "eigensolver failed: did not converge" in capsys.readouterr().err


def test_verify_deterministic_and_green(tmp_path, capsys):
    o1, o2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["verify", "--cases", "5", "--seed", "42", "--out", str(o1)]) == 0
    assert main(["verify", "--cases", "5", "--seed", "42", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    doc = json.loads(o1.read_text())
    assert doc["summary"]["failures"] == 0
    assert doc["flags"] == {"cases": 5, "max_n": 7, "seed": 42}
    capsys.readouterr()


def test_verify_stdout_mode(capsys):
    assert main(["verify", "--cases", "2", "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["summary"]["cases"] == 2
    assert "failures" in err


def test_verify_flag_validation(capsys):
    assert main(["verify", "--max-n", "1"]) == 1
    assert main(["verify", "--max-n", "13"]) == 1
    assert main(["verify", "--cases", "0"]) == 1
    capsys.readouterr()


def test_verify_unwritable_out_exits_1(capsys):
    assert main(["verify", "--cases", "1", "--out", "/nonexistent/dir/x.json"]) == 1
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_flag_is_usage_error(worked_pair, capsys):
    assert main(["check-ec", worked_pair, "--bogus"]) == 1
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    f = write_pair(tmp_path / "pair.json", np.diag([0.0, 1.0]),
                   np.array([[1.0, 1j], [-1j, 3.0]]))
    out = tmp_path / "red.json"
    proc = subprocess.run(
        [sys.executable, "-m", "expconvex.cli", "reduce", f, str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["reduce", "check-ec", "fit-measure"])
def test_non_utf8_file_exits_1_and_names_path(tmp_path, capsys, command):
    f = tmp_path / "utf16.json"
    f.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = [command, str(f)] + ([str(tmp_path / "o.json")] if command == "reduce" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {f}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


_SCIPY_PROBE = """
import json, sys
from expconvex import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

path, out = sys.argv[1], sys.argv[2]
codes = {}
loaded = {"import": scipy_loaded()}
for argv in (["reduce", path, out], ["check-ec", path], ["verify", "--cases", "2"],
             ["fit-measure", path]):
    codes[argv[0]] = cli.main(argv)
    loaded[argv[0]] = scipy_loaded()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_scipy_loaded_only_by_fit_measure(tmp_path, worked_pair):
    # a fresh interpreter, so no other test has imported scipy yet
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, worked_pair, str(tmp_path / "o.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == {"reduce": 0, "check-ec": 0, "verify": 0, "fit-measure": 0}
    for step in ("import", "reduce", "check-ec", "verify"):
        assert doc["loaded"][step] == [], step
    assert "scipy.optimize" in doc["loaded"]["fit-measure"]
