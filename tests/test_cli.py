"""End-to-end tests of the command-line interface and its exit codes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from expconvex import cli
from expconvex.cli import MAX_GRID_N, main
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
    "argv, flag, value",
    [(["check-ec", "--tol", "nan"], "--tol", "nan"),
     (["check-ec", "--tol", "inf"], "--tol", "inf"),
     (["check-ec", "--grid-hi", "inf"], "--grid-hi", "inf"),
     (["check-ec", "--grid-lo=-inf"], "--grid-lo", "-inf"),
     (["fit-measure", "--reg", "nan"], "--reg", "nan"),
     (["fit-measure", "--reg", "inf"], "--reg", "inf")],
    ids=["tol-nan", "tol-inf", "grid-hi-inf", "grid-lo-inf", "reg-nan", "reg-inf"],
)
def test_nonfinite_flag_is_usage_error_before_reading(tmp_path, capsys, argv, flag, value):
    # the input does not exist: the flag is refused before the file is opened
    assert main(argv[:1] + [str(tmp_path / "absent.json")] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be finite, got {value}\n"


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


@pytest.mark.parametrize("kind", list(_MALFORMED))
def test_malformed_file_reports_like_json(tmp_path, capsys, kind):
    data, code, message = _MALFORMED[kind]
    f = tmp_path / "pair.json"
    f.write_bytes(data)
    assert main(["check-ec", str(f)]) == code
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
     ("orjson", ["verify"], "check-ec", "orjson")],
    ids=["scipy", "orjson"],
)
def test_scipy_loaded_only_by_fit_measure(tmp_path, worked_pair, module, unloaded, loader,
                                          loaded_name):
    # a fresh interpreter, so no other test has imported the module yet;
    # the steps run in order and the module must first appear at loader
    steps = unloaded + [loader]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, module, worked_pair, str(tmp_path / "o.json")]
        + steps,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == {step: 0 for step in steps}
    for step in ["import"] + unloaded:
        assert doc["loaded"][step] == [], step
    assert loaded_name in doc["loaded"][loader]
