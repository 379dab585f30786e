"""End-to-end tests of the command-line interface and its exit codes."""

import json
import subprocess
import sys
import threading
import time
import types
import warnings

import numpy as np
import orjson
import pytest

from expconvex import (
    TGrid, TracePair, cli, eigh, fit_measure, matrixio, sample_trace_f, transform,
    validate_hermitian,
)
from expconvex.cli import MAX_GRID_N, MAX_RESOLUTION, MAX_T_POINTS, main
from expconvex.errors import ExpConvexError
from expconvex.matrixio import matrix_from_doc
from expconvex.tolerances import CONTOUR_MIN_N, HOLDOUT_LIMIT, SUPPORT_MIN_WIDTH
from expconvex.verify import random_rank_one_pair


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


def test_check_ec_zero_a_at_contour_size_takes_the_dense_kernel(tmp_path, capsys):
    n = 32
    assert n >= CONTOUR_MIN_N
    b = np.diag(np.linspace(-1.0, 1.0, n))
    f = write_pair(tmp_path / "zero-a.json", np.zeros((n, n)), b)
    # no column of A = 0 gives a rank-one factor, so trace_values takes the dense kernel
    assert transform._rank_one_factor(validate_hermitian(np.zeros((n, n)))) is None
    assert main(["check-ec", f]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_check_ec_flag_validation(worked_pair, capsys):
    assert main(["check-ec", worked_pair, "--grid-n", "0"]) == 1
    assert main(["check-ec", worked_pair, "--grid-lo", "2", "--grid-hi", "-2"]) == 1
    assert main(["check-ec", worked_pair, "--tol", "-1e-8"]) == 1
    capsys.readouterr()


def test_grid_n_bound_is_checked_before_reading(tmp_path, capsys):
    # the input does not exist: a grid of 10^10 sums is refused before the
    # file is opened, and nothing of that size is allocated
    absent = str(tmp_path / "absent.json")
    assert main(["check-ec", absent, "--grid-n", "100000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --grid-n must be at most {MAX_GRID_N}, got 100000\n"
    # the bound itself is accepted, and the run goes on to read the file
    assert main(["check-ec", absent, "--grid-n", str(MAX_GRID_N)]) == 1
    assert capsys.readouterr().err == f"error: {absent}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv", [["--grid-hi", "1e308"], ["--grid-lo=-1e308", "--grid-hi", "1e308"]], ids=["hi", "both"]
)
def test_grid_with_overflowing_sums_is_usage_error(tmp_path, capsys, argv):
    # the grid sums t_r + t_s would overflow; refused before the file is read,
    # with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-ec", str(tmp_path / "absent.json")] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: grid points must lie within ")


@pytest.mark.parametrize("shape", ["dense", "contour"])
@pytest.mark.parametrize("grid_hi", ["8e307", "1e200"])
def test_huge_grid_end_exits_4_with_one_short_line(tmp_path, capsys, shape, grid_hi):
    # 8e307 passes the grid bound, but t*A + B (dense, n = 2) or t*lambda
    # (contour, rank-one A at n = 32) leaves the double range at the largest
    # sums; at 1e200 the range holds, and the message must not print the
    # 200 digits of the largest eigenvalue
    if shape == "dense":
        a, b = np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        rng = np.random.default_rng(5)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        a = 1.5 * np.outer(v, v.conj()) / np.vdot(v, v).real
        x = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        b = (x + x.conj().T) / 4.0
    f = write_pair(tmp_path / "pair.json", a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-ec", f, "--grid-hi", grid_hi]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) <= 121
    assert err.startswith("error: numerical failure: ")
    assert " at t = " in err


def test_negative_flag_values_in_exponent_form(worked_pair, capsys):
    assert main(["check-ec", worked_pair]) == 0
    default = capsys.readouterr()
    assert main(["check-ec", worked_pair, "--grid-lo", "-2e0", "--grid-hi", "2e0"]) == 0
    assert capsys.readouterr() == default
    # a separate value reads as the same number as an attached one
    code = main(["check-ec", worked_pair, "--grid-lo=-1e5", "--grid-hi", "1"])
    attached = capsys.readouterr()
    assert main(["check-ec", worked_pair, "--grid-lo", "-1e5", "--grid-hi", "1"]) == code
    assert capsys.readouterr() == attached


def test_check_ec_tol_flag(tmp_path, capsys):
    f = write_pair(tmp_path / "z.json", np.zeros((2, 2)), np.zeros((2, 2)))
    # Gram of f==2 on 8 points has max entry 2, so tolerance = tol * 2
    assert main(["check-ec", f, "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerance"] == pytest.approx(2e-5)


def test_check_ec_infinite_tolerance_names_tol(worked_pair, capsys):
    # tol * max(1, max|G|) overflows: no report, one line that names the flag
    assert main(["check-ec", worked_pair, "--tol", "1e308"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --tol 1e+308 ")


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


@pytest.mark.parametrize(
    "argv, message",
    [(["check-ec", "--tol", "nan"], "--tol must be finite, got nan"),
     (["check-ec", "--tol", "inf"], "--tol must be finite, got inf"),
     (["check-ec", "--grid-hi", "inf"], "--grid-hi must be finite, got inf"),
     (["check-ec", "--grid-lo=-inf"], "--grid-lo must be finite, got -inf"),
     (["fit-measure", "--reg", "nan"], "--reg must be finite, got nan"),
     (["fit-measure", "--reg", "inf"], "--reg must be finite, got inf"),
     # a non-finite grid end is named as such, not as a misordered grid
     (["check-ec", "--grid-hi", "nan"], "--grid-hi must be finite, got nan"),
     (["check-ec", "--grid-lo", "inf"], "--grid-lo must be finite, got inf"),
     # a negative non-finite value after a space is a number, in any case float reads
     (["check-ec", "--grid-lo", "-inf"], "--grid-lo must be finite, got -inf"),
     (["check-ec", "--grid-hi", "-inf"], "--grid-hi must be finite, got -inf"),
     (["check-ec", "--grid-hi", "-Infinity"], "--grid-hi must be finite, got -inf"),
     (["check-ec", "--grid-lo", "-NaN"], "--grid-lo must be finite, got nan"),
     (["check-ec", "--tol", "-inf"], "--tol must be positive, got -inf")],
    ids=["tol-nan", "tol-inf", "grid-hi-inf", "grid-lo-inf", "reg-nan", "reg-inf",
         "grid-hi-nan", "grid-lo-pos-inf", "grid-lo-neg-inf", "grid-hi-neg-inf",
         "grid-hi-neg-infinity", "grid-lo-neg-nan", "tol-neg-inf"],
)
def test_nonfinite_flag_is_usage_error_before_reading(tmp_path, capsys, argv, message):
    # the input does not exist: the flag is refused before the file is opened
    assert main(argv[:1] + [str(tmp_path / "absent.json")] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["--t-points", "1000000000000"],
      f"--t-points must be at most {MAX_T_POINTS}, got 1000000000000"),
     (["--t-points", "100000", "--resolution", "400000"],
      f"--resolution must be at most {MAX_RESOLUTION}, got 400000"),
     (["--t-points", "100", "--resolution", "401"],
      "--resolution must be at most 4 * --t-points = 400, got 401")],
    ids=["t-points", "resolution", "resolution-per-sample"],
)
def test_fit_measure_sizes_are_checked_before_reading(tmp_path, capsys, argv, message):
    # the input does not exist: sizes whose arrays would not fit in memory, or
    # that fit_measure refuses, are usage errors before the file is opened
    absent = str(tmp_path / "absent.json")
    assert main(["fit-measure", absent] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    # the bounds themselves are accepted, and the run goes on to read the file
    for t_points, resolution in [(MAX_T_POINTS, MAX_RESOLUTION), (100, 400)]:
        argv = ["--t-points", str(t_points), "--resolution", str(resolution)]
        assert main(["fit-measure", absent] + argv) == 1
        assert capsys.readouterr().err == f"error: {absent}: No such file or directory\n"


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


def test_trace_underflow_exits_4_and_names_t(tmp_path, capsys):
    # f(t) = e^-800 (1 + e^t) is 0.0 in double precision at the first sample t = -2
    f = write_pair(tmp_path / "small.json", np.diag([0.0, 1.0]), np.diag([-800.0, -800.0]))
    assert main(["fit-measure", f]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numerical failure: trace value 0.0 underflows at t = -2.0\n"


def test_fit_measure_needs_no_far_points(tmp_path, capsys):
    # f(t) = e^-800 + e^(t - 700) underflows at the far point t = -80 of growth_exponents,
    # but not on the sampled [-2, 2], where it is e^(t - 700): one atom at 1 of [0, 1]
    f = write_pair(tmp_path / "small.json", np.diag([0.0, 1.0]), np.diag([-800.0, -700.0]))
    assert main(["fit-measure", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holdout_error"] <= HOLDOUT_LIMIT
    assert all(0.0 <= loc <= 1.0 for loc, _ in doc["measure"]["atoms"])


def test_fit_measure_large_rank_one_pair_exits_0(tmp_path, capsys):
    # the support comes from spec(A), so no far point t ~ 80 / ||A||_max overflows at n = 64
    pair = random_rank_one_pair(np.random.default_rng([4242, 64, 0]), 64)
    f = write_pair(tmp_path / "n64.json", pair.A.mat, pair.B.mat)
    assert main(["fit-measure", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holdout_error"] <= HOLDOUT_LIMIT
    w = np.linalg.eigvalsh(pair.A.mat)
    slack = 1e-12 * pair.A.norm_max()
    assert all(w[0] - slack <= loc <= w[-1] + slack for loc, _ in doc["measure"]["atoms"])


def test_fit_measure_residual_above_the_square_root_of_the_double_range(tmp_path, capsys):
    # f(t) = e^380 (1 + e^t): the residuals near 1e154 would overflow when squared
    f = write_pair(tmp_path / "big.json", np.diag([0.0, 1.0]), 380.0 * np.eye(2))
    assert main(["fit-measure", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 < doc["training_residual"] < np.finfo(float).max
    assert doc["holdout_error"] <= HOLDOUT_LIMIT


def test_fit_measure_dead_atoms_past_the_exp_range_give_a_finite_report(tmp_path, capsys):
    # A = diag(0, 360), B = diag(0, -100): the atoms near 360 are dead, and their terms at the
    # held-out t = 2 would overflow; the report is a finite verdict (exit 3), not a usage error
    f = write_pair(tmp_path / "dead.json", np.diag([0.0, 360.0]), np.diag([0.0, -100.0]))
    assert main(["fit-measure", f]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert HOLDOUT_LIMIT < doc["holdout_error"] < np.finfo(float).max


@pytest.mark.parametrize("command", ["reduce", "check-ec", "fit-measure"])
def test_entry_above_half_the_double_range_exits_1(tmp_path, capsys, command):
    # (A + A*)/2 would overflow to NaN: an input error, not a verdict on garbage
    f = write_pair(tmp_path / "huge.json", np.diag([1.7e308, 0.0]), np.eye(2))
    argv = [command, f] + ([str(tmp_path / "o.json")] if command == "reduce" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: matrix entries must not exceed 8.9884656743115785e+307 in modulus, "
        "so that (m + m*)/2 is finite\n"
    )


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
    # eigh alone: the Gram matrix's PSD check in check-ec, eigh(A) in fit-measure
    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main([command, worked_pair]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numerical failure: eigensolver failed: did not converge\n"


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


def test_verify_negative_seed_names_flag(capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


def test_verify_unwritable_out_exits_1(capsys):
    assert main(["verify", "--cases", "1", "--out", "/nonexistent/dir/x.json"]) == 1
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_flag_is_usage_error(worked_pair, capsys):
    assert main(["check-ec", worked_pair, "--bogus"]) == 1
    capsys.readouterr()


def test_parser_is_built_once_per_process(worked_pair, capsys, monkeypatch):
    built = []

    def spy():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for argv in (["check-ec", worked_pair], ["check-ec", worked_pair, "--grid-n", "0"],
                     ["fit-measure", worked_pair], ["verify", "--max-n", "1"]):
            main(argv)
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert built == [1]
    # any other caller still gets a parser of its own
    assert build_parser() is not build_parser()


def test_reused_parser_keeps_no_state(worked_pair, capsys):
    cli._parser.cache_clear()
    assert main(["check-ec", worked_pair]) == 0
    first = capsys.readouterr()
    assert main(["check-ec", worked_pair, "--grid-n", "4"]) == 0
    assert main(["check-ec", worked_pair, "--grid-n", "0"]) == 1
    assert capsys.readouterr().err == "error: --grid-n must be at least 2, got 0\n"
    with pytest.raises(SystemExit) as stop:
        main(["check-ec", "--help"])
    assert stop.value.code == 0
    reused_help = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["check-ec", "--help"])
    assert reused_help == capsys.readouterr().out
    assert main(["check-ec", worked_pair]) == 0
    assert capsys.readouterr() == first


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


def _pair_text(a_entries="[[1, 0], [0, 0], [0, 0], [0, 0]]", extra=""):
    return ('{"A": {"n": 2, "entries": ' + a_entries + '}, '
            '"B": {"n": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}' + extra + '}')


_DEEP = 100000
_DIGIT_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: value has "
                "5001 digits; use sys.set_int_max_str_digits() to increase the limit")
_ARRAY_DEPTH = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
_OBJECT_DEPTH = "maximum recursion depth exceeded while decoding a JSON object from a unicode string"

# file bytes -> check-ec's exit code and the stderr after "error: PATH: ", as
# the stdlib json parser reports them; orjson must not change a byte of it
_MALFORMED = {
    "nan": (_pair_text("[[NaN, 0], [0, 0], [0, 0], [0, 0]]").encode(), 1,
            "A: entry 0 (row 0, col 0): non-finite value [nan, 0]"),
    "infinity": (_pair_text("[[1, 0], [0, -Infinity], [0, 0], [0, 0]]").encode(), 1,
                 "A: entry 1 (row 0, col 1): non-finite value [0, -inf]"),
    "int-400-digits": (_pair_text("[[1, 0], [0, 0], [1" + "0" * 400 + ", 0], [0, 0]]").encode(), 1,
                       "A: entry 2 (row 1, col 0): number outside double range"),
    "int-5000-digits": (_pair_text("[[1, 0], [0, 0], [0, 0], [0, 1" + "0" * 5000 + "]]").encode(),
                        1, _DIGIT_LIMIT),
    "n-2**64": (b'{"A": {"n": 18446744073709551616, "entries": [[1, 0]]}, '
                b'"B": {"n": 1, "entries": [[0, 0]]}}', 1,
                "A: expected 340282366920938463463374607431768211456 entries "
                "for n = 18446744073709551616, got 1"),
    "n-below-int64": (b'{"A": {"n": 1, "entries": [[1, 0]]}, '
                      b'"B": {"n": -9223372036854775809, "entries": [[0, 0]]}}', 1,
                      "B: 'n' must be a positive integer, got -9223372036854775809"),
    "lone-surrogate": (_pair_text(extra=', "note": "\\ud800"').encode(), 0, None),
    "bom": (b"\xef\xbb\xbf" + _pair_text().encode(), 1,
            "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "trailing-garbage": (_pair_text().encode() + b" x", 1,
                         "invalid JSON at line 1, column 122: Extra data"),
    "crlf-line-3": (b'{\r\n"A": {"n": 1, "entries": [[1, 0]]},\r\n'
                    b'"B": {"n": 1, "entries": [[0, 0]],}\r\n}\r\n', 1,
                    "invalid JSON at line 3, column 35: "
                    "Expecting property name enclosed in double quotes"),
    "unclosed-brackets": (b"[" * _DEEP, 1, _ARRAY_DEPTH),
    "byte-ff": (_pair_text(extra=', "note": "caf\xff"').encode("latin-1"), 1,
                "'utf-8' codec can't decode byte 0xff in position 133: invalid start byte"),
    "repeated-key": (b'{"A": {"n": 1, "entries": [[1, 0]]}, "A": {"n": 1, "entries": [[0, 0]]}}',
                     1, "missing key 'B'"),
    "b-first-shape-mismatch": (b'{"B": {"n": 1, "entries": [[1, 0]]}, '
                               b'"A": {"n": 2, "entries": [[0, 0], [0, 0], [0, 0], [0, 0]]}}',
                               1, "A is 2x2 but B is 1x1"),
    # nesting json refuses under an ignored key; orjson would accept the
    # arrays and overflow the C stack on the objects
    "deep-matrix-key": (_pair_text("[[1, 0], [0, 0], [0, 0], [0, 0]], \"x\": "
                                   + "[" * _DEEP + "]" * _DEEP).encode(), 1, _ARRAY_DEPTH),
    # an escaped quote would hide the nesting from a scan that pairs quotes
    "escaped-quote-deep-key": (_pair_text('[[1, 0], [0, 0], [0, 0], [0, 0]], "q": "\\"", "x": '
                                          + "[" * _DEEP + "]" * _DEEP).encode(), 1, _ARRAY_DEPTH),
    "deep-extra-key": (_pair_text(extra=', "x": ' + "[" * _DEEP + "]" * _DEEP).encode(), 1,
                       _ARRAY_DEPTH),
    "deep-repeated-key": (('{"A": ' + '{"a": ' * _DEEP + "0" + "}" * _DEEP + ", "
                           + _pair_text()[1:]).encode(), 1, _OBJECT_DEPTH),
}


def _one_flat_array(data):
    """True when data is one array with no array or object inside it."""
    return (data.startswith(b"[") and data.endswith(b"]")
            and not any(mark in data[1:-1] for mark in (b"[", b"]", b"{")))


@pytest.mark.parametrize("kind", list(_MALFORMED))
def test_malformed_file_reports_like_json(tmp_path, capsys, monkeypatch, kind):
    data, code, message = _MALFORMED[kind]
    f = tmp_path / "pair.json"
    f.write_bytes(data)
    # orjson parses only flat number arrays, so deep nesting never reaches it
    loaded, real_loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda b: loaded.append(bytes(b)) or real_loads(b))
    assert main(["check-ec", str(f)]) == code
    assert all(map(_one_flat_array, loaded))
    out, err = capsys.readouterr()
    if message is None:
        assert err == ""
        assert json.loads(out)["passed"] is True
    else:
        assert out == ""
        assert err == f"error: {f}: {message}\n"


_IMPORT_PROBE = """
import json, sys
from expconvex import cli

module, path, out = sys.argv[1], sys.argv[2], sys.argv[3]

def loaded():
    return sorted(m for m in sys.modules if m == module or m.startswith(module + "."))

steps = {"reduce": ["reduce", path, out], "check-ec": ["check-ec", path],
         "verify": ["verify", "--cases", "2"], "fit-measure": ["fit-measure", path]}
codes = {}
seen = {"import": loaded()}
for step in sys.argv[4:]:
    codes[step] = cli.main(steps[step])
    seen[step] = loaded()
print(json.dumps({"codes": codes, "loaded": seen}))
"""


@pytest.mark.parametrize(
    "module, unloaded, loader, loaded_name",
    [("scipy", ["reduce", "check-ec", "verify"], "fit-measure", "scipy.optimize"),
     # import expconvex.cli loads no orjson; verify loads it at its first report write
     ("orjson", [], "verify", "orjson"),
     # check-ec starts B's eigh ahead on this n = CONTOUR_MIN_N pair with threading, which
     # numpy imports, and loads no concurrent.futures (scipy, and so fit-measure, does)
     ("concurrent", ["reduce", "check-ec", "verify"], None, None)],
    ids=["scipy", "orjson", "concurrent"],
)
def test_scipy_loaded_only_by_fit_measure(tmp_path, worked_pair, module, unloaded, loader,
                                          loaded_name):
    # a fresh interpreter, so no other test has imported the module yet;
    # the steps run in order and the module must first appear at loader
    steps = unloaded + ([loader] if loader else [])
    path = worked_pair if loader else _ensemble_file(tmp_path, CONTOUR_MIN_N)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, module, path, str(tmp_path / "o.json")]
        + steps,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == {step: 0 for step in steps}
    for step in ["import"] + unloaded:
        assert doc["loaded"][step] == [], step
    if loader:
        assert loaded_name in doc["loaded"][loader]


@pytest.mark.parametrize("c", [0.0, 1.0, 2.5, -3.0])
@pytest.mark.parametrize("resolution", [64, 63, 1])
def test_fit_measure_scalar_a_puts_an_atom_at_c(tmp_path, capsys, c, resolution):
    # spec(cI) = {c}: the widened unit-width atom grid has a node at c, so the point mass
    # e^B's trace sits on one atom, not split over two nodes around c
    rng = np.random.default_rng(99)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f = write_pair(tmp_path / "scalar.json", c * np.eye(4), (g + g.conj().T) / 2.0)
    assert main(["fit-measure", f, "--resolution", str(resolution)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holdout_error"] <= 1e-5
    locations = [loc for loc, _ in doc["measure"]["atoms"]]
    assert min(abs(loc - c) for loc in locations) <= 1e-12 * max(1.0, abs(c))


# B's eigendecomposition started ahead: check-ec and fit-measure at n >= CONTOUR_MIN_N start
# the contour kernel's eigh of B on a second thread once the flat route has decoded B


class _InlineThread:
    """The part of threading.Thread that transform._eigh_ahead uses, running its target in start."""

    def __init__(self, target, name=None):
        self._target = target

    def start(self):
        self._target()

    def join(self):
        pass


def _counted_threads(monkeypatch):
    """The names of the threads transform starts from now on, in a list that grows."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(transform, "threading", types.SimpleNamespace(Thread=Counted))
    return started


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _plain_load(path):
    """A and B as validated by the CLI with no eigh ahead: load_pair without on_b, then A, B."""
    return [validate_hermitian(m) for m in matrixio.load_pair(path)]


def _ensemble_file(tmp_path, n, seed=61):
    pair = random_rank_one_pair(np.random.default_rng([seed, n]), n)
    return write_pair(tmp_path / f"pair-{n}.json", pair.A.mat, pair.B.mat)


_TRACE_COMMANDS = {"check-ec": ["check-ec"], "check-ec-8": ["check-ec", "--grid-n", "8"],
                   "fit-measure": ["fit-measure"]}


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("command", list(_TRACE_COMMANDS))
def test_eigh_ahead_gives_the_bytes_of_an_inline_eigh(tmp_path, capsys, monkeypatch, n, command):
    f = _ensemble_file(tmp_path, n)
    argv = _TRACE_COMMANDS[command][:1] + [f] + _TRACE_COMMANDS[command][1:]
    with pytest.MonkeyPatch.context() as mp:
        started = _counted_threads(mp)
        threaded = _outcome(capsys, argv)
    assert started == ["eigh-ahead"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "threading", types.SimpleNamespace(Thread=_InlineThread))
        inline = _outcome(capsys, argv)
    # no eigh ahead: the kernel calls eigh itself, as before the eigh was started ahead
    monkeypatch.setattr(cli, "_eigh_ahead", lambda b: None)
    assert threaded == inline == _outcome(capsys, argv)
    assert threaded[0] in (0, 3) and threaded[2] == ""


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("command", ["check-ec", "fit-measure"])
def test_trace_commands_evaluate_through_the_public_trace_values(
        tmp_path, capsys, monkeypatch, n, command):
    # one call of the public evaluator, so that a wrapper of transform.trace_values bound
    # under each of its names (the benchmark's tracer) sees every point the command evaluates
    f = _ensemble_file(tmp_path, n)
    calls, real = [], transform.trace_values

    def spy(pair, ts):
        calls.append(pair.n)
        return real(pair, ts)

    for module in (transform, cli):
        monkeypatch.setattr(module, "trace_values", spy)
    assert main([command, f]) in (0, 3)
    assert calls == [n]
    capsys.readouterr()


@pytest.mark.parametrize("n", [2, 32])
@pytest.mark.parametrize("t_points, resolution", [(48, 64), (47, 100), (3, 12)])
def test_fit_measure_report_is_the_library_fit(tmp_path, capsys, n, t_points, resolution):
    # the plain linspace the command samples on is TGrid.equispaced's grid, bit for bit
    f = _ensemble_file(tmp_path, n)
    pair = TracePair(*_plain_load(f))
    w, _ = eigh(pair.A)
    lo, hi = w[0], w[-1]
    if hi - lo < SUPPORT_MIN_WIDTH:
        mid = (lo + hi) / 2.0
        lo = mid - ((resolution - 1) // 2) / max(resolution - 1, 1)
        hi = lo + 1.0
    fit = fit_measure(sample_trace_f(pair, TGrid.equispaced(-2.0, 2.0, t_points)), (lo, hi),
                      resolution)
    argv = ["fit-measure", f, "--t-points", str(t_points), "--resolution", str(resolution)]
    assert main(argv) in (0, 3)
    assert capsys.readouterr().out == matrixio.dumps_doc(matrixio.fit_to_doc(fit))


def test_eigh_of_b_runs_once_and_off_the_main_thread(tmp_path, capsys, monkeypatch):
    f = _ensemble_file(tmp_path, 64)
    calls, real = [], np.linalg.eigh

    def spy(a):
        if a.ndim == 2:  # the contour kernel's eigh; eigh(pair.A) and the Gram's are stacked
            calls.append(threading.current_thread() is threading.main_thread())
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for command in ("check-ec", "fit-measure"):
        calls.clear()
        assert main([command, f]) == 0
        assert calls == [False], command
    capsys.readouterr()


def _malformed_a(tmp_path, n):
    """A flat B of size n after an A whose first entry holds a string: B decodes, A does not."""
    pair = random_rank_one_pair(np.random.default_rng([67, n]), n)
    doc = {"A": matrixio.matrix_to_doc(pair.A.mat), "B": matrixio.matrix_to_doc(pair.B.mat)}
    doc["A"]["entries"][0][1] = "x"
    path = tmp_path / "malformed-a.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _rank_two(tmp_path, n):
    pair = random_rank_one_pair(np.random.default_rng([71, n]), n)
    a = pair.A.mat.copy()
    a[0, 0] += 0.5 * pair.A.norm_max()
    return write_pair(tmp_path / "rank-two.json", a, pair.B.mat)


@pytest.mark.parametrize("case", ["success", "malformed-a", "rank-two", "eigh-fails"])
@pytest.mark.parametrize("command", ["check-ec", "fit-measure"])
def test_eigh_ahead_thread_is_joined_on_every_path(tmp_path, capsys, monkeypatch, case, command):
    n = CONTOUR_MIN_N
    f = {"success": _ensemble_file, "malformed-a": _malformed_a, "rank-two": _rank_two,
         "eigh-fails": _ensemble_file}[case](tmp_path, n)
    real, on_main = np.linalg.eigh, []

    def slow_eigh(a):
        # the contour kernel's eigh of B, the one unstacked call, outlasts the rest of an
        # op, so that a thread left unjoined is still alive when main returns
        if a.ndim == 2:
            on_main.append(threading.current_thread() is threading.main_thread())
            time.sleep(0.2)
            if case == "eigh-fails":
                raise np.linalg.LinAlgError("did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        started = _counted_threads(mp)
        threaded = _outcome(capsys, [command, f])
    assert threading.active_count() == before
    assert started == ["eigh-ahead"]
    # a failed eigh ahead leaves nothing behind: the kernel makes its own, which fails alike
    assert on_main == ([False, True] if case == "eigh-fails" else [False])
    # the outcome of the kernel's own eigh, as before the eigh was started ahead
    monkeypatch.setattr(cli, "_eigh_ahead", lambda b: None)
    assert threaded == _outcome(capsys, [command, f])
    code, out, err = threaded
    if case == "malformed-a":
        assert (code, out) == (1, "") and err.startswith(f"error: {f}: A: entry 0 ")
    elif case == "eigh-fails":
        assert (code, out) == (4, "")
        assert err == "error: numerical failure: eigensolver failed: did not converge\n"
    else:
        assert code in (0, 3) and err == ""


def _json_route_file(tmp_path, n):
    """An extra key holding an array in each matrix object sends the file to the json route."""
    pair = random_rank_one_pair(np.random.default_rng([73, n]), n)
    doc = {k: dict(matrixio.matrix_to_doc(m.mat), note=[1]) for k, m in zip("AB", (pair.A, pair.B))}
    path = tmp_path / "json-route.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["check-ec", "n31"], ["fit-measure", "n31"], ["check-ec", "json-route"],
    ["fit-measure", "json-route"], ["reduce", "n32", "out"], ["verify", "--cases", "2"],
], ids=lambda argv: "-".join(argv[:2]))
def test_no_eigh_ahead_below_the_contour_size_on_the_json_route_or_elsewhere(
        tmp_path, capsys, monkeypatch, argv):
    files = {"n31": _ensemble_file(tmp_path, CONTOUR_MIN_N - 1),
             "n32": _ensemble_file(tmp_path, CONTOUR_MIN_N),
             "json-route": _json_route_file(tmp_path, CONTOUR_MIN_N),
             "out": str(tmp_path / "out.json")}
    started = _counted_threads(monkeypatch)
    assert main([files.get(arg, arg) for arg in argv]) in (0, 3)
    assert started == []
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["A", "B", "AB"])
@pytest.mark.parametrize("command", ["check-ec", "fit-measure"])
def test_eigh_ahead_keeps_a_error_before_b_error(tmp_path, capsys, command, bad):
    # matrices that are not Hermitian, each by its own deviation; the error is the one the
    # plain loader raises, and a thread starts only when B passes its check
    n = CONTOUR_MIN_N
    pair = random_rank_one_pair(np.random.default_rng([79, n]), n)
    a, b = pair.A.mat.copy(), pair.B.mat.copy()
    if "A" in bad:
        a[0, 1] += 1.0
    if "B" in bad:
        b[0, 1] += 2.0
    f = write_pair(tmp_path / "not-hermitian.json", a, b)
    with pytest.raises(ExpConvexError) as expected:
        _plain_load(f)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        started = _counted_threads(mp)
        assert _outcome(capsys, [command, f]) == (1, "", f"error: {expected.value}\n")
    assert started == ([] if "B" in bad else ["eigh-ahead"])
    assert threading.active_count() == before


@pytest.mark.parametrize("n_a", [2, CONTOUR_MIN_N + 1])
@pytest.mark.parametrize("command", ["check-ec", "fit-measure"])
def test_no_eigh_ahead_when_a_and_b_sizes_differ(tmp_path, capsys, command, n_a):
    # both matrices Hermitian, B of the contour size: the short text already shows the sizes
    # differ, so B's eigh is not started and the error is the plain loader's
    b = random_rank_one_pair(np.random.default_rng([83, CONTOUR_MIN_N]), CONTOUR_MIN_N).B.mat
    f = write_pair(tmp_path / "sizes-differ.json", np.eye(n_a), b)
    with pytest.raises(ExpConvexError) as expected:
        _plain_load(f)
    assert "but B is" in str(expected.value)
    with pytest.MonkeyPatch.context() as mp:
        started = _counted_threads(mp)
        assert _outcome(capsys, [command, f]) == (1, "", f"error: {expected.value}\n")
    assert started == []
