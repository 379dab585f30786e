"""JSON interchange for complex matrices, reductions, measures, and reports.

A matrix document is {"n": dim, "entries": [[re, im], ...]} with entries in
row-major order; a pair file holds two such documents under keys "A" and
"B".  Files are parsed with orjson, and parsed again with json whenever
that route refuses one, so that json reports every error.  All writers
serialize with sorted keys and fixed indentation so that output bytes are
deterministic.
"""

from __future__ import annotations

import io
import json
import math
import re
from itertools import chain

import numpy as np

from .errors import MatrixFileError
from .transform import AtomicMeasure, MeasureFit


def matrix_to_doc(mat: np.ndarray) -> dict:
    """Encode a square complex matrix as {n, entries} with [re, im] pairs."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return {"n": int(m.shape[0]), "entries": complex_vector_to_doc(m)}


def complex_vector_to_doc(vec: np.ndarray) -> list:
    """[re, im] pairs of the entries of vec, in row-major order."""
    v = np.asarray(vec, dtype=complex)
    return np.stack([v.real, v.imag], -1).reshape(-1, 2).tolist()


def real_vector_to_doc(vec: np.ndarray) -> list:
    return np.asarray(vec, dtype=float).reshape(-1).tolist()


def _entry_to_complex(entry, index: int, n: int, where: str) -> complex:
    row, col = divmod(index, n)
    spot = f"{where}: entry {index} (row {row}, col {col})"
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise MatrixFileError(f"{spot}: expected an [re, im] pair, got {entry!r}")
    re, im = entry
    if isinstance(re, bool) or isinstance(im, bool) or not (
        isinstance(re, (int, float)) and isinstance(im, (int, float))
    ):
        raise MatrixFileError(f"{spot}: re and im must be numbers, got {entry!r}")
    try:
        re, im = float(re), float(im)
    except OverflowError:
        # an int beyond the double range; its repr may be too long to format
        raise MatrixFileError(f"{spot}: number outside double range") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MatrixFileError(f"{spot}: non-finite value {entry!r}")
    return complex(re, im)


def _bulk_floats(entries: list) -> np.ndarray | None:
    """re0, im0, re1, im1, ... of all entries as one float array.

    None unless every entry is a list or tuple of two numbers of exact type
    int or float, all finite within the double range; bool, str and
    subclasses are left to the positional checker.
    """
    if not set(map(type, entries)) <= {list, tuple} or set(map(len, entries)) != {2}:
        return None
    if not set(map(type, chain.from_iterable(entries))) <= {int, float}:
        return None
    try:
        flat = np.fromiter(chain.from_iterable(entries), float, count=2 * len(entries))
    except OverflowError:
        return None
    return flat if np.isfinite(flat).all() else None


def matrix_from_doc(doc, where: str = "matrix") -> np.ndarray:
    """Decode a {n, entries} document, reporting the position of any defect.

    All entries are checked and converted in one bulk pass; only when that
    fails does the per-entry checker run, to name the first defect by index,
    row and column (or to accept subclasses of list, int and float).
    """
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{where}: expected an object, got {type(doc).__name__}")
    if "n" not in doc:
        raise MatrixFileError(f"{where}: missing key 'n'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixFileError(f"{where}: 'n' must be a positive integer, got {n!r}")
    if "entries" not in doc:
        raise MatrixFileError(f"{where}: missing key 'entries'")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise MatrixFileError(f"{where}: 'entries' must be an array")
    if len(entries) != n * n:
        raise MatrixFileError(
            f"{where}: expected {n * n} entries for n = {n}, got {len(entries)}"
        )
    flat = _bulk_floats(entries)
    if flat is None:
        z = [_entry_to_complex(e, k, n, where) for k, e in enumerate(entries)]
        return np.array(z, dtype=complex).reshape(n, n)
    # the view pairs each (re, im) into the bits complex(re, im) has, -0.0 included
    return flat.view(complex).reshape(n, n)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc.strerror or exc}") from exc


def _parse_text(path: str, data: bytes):
    """Parse data with json.loads, as text read from a UTF-8 file in text mode.

    The text mode of the read (universal newlines included) keeps the line
    and column of a syntax error, and the byte offset of a decode error, as
    they are in the file.
    """
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # the decoder's other errors: an integer literal past the digit limit,
        # or arrays nested past the interpreter's recursion limit
        raise MatrixFileError(f"{path}: {exc}") from exc


# a pair file nests object > matrix object > entries array > [re, im] array
_FORMAT_DEPTH = 4
# +1 for an opening bracket, -1 for a closing one, by byte value
_BRACKET_STEP = np.zeros(256, dtype=np.int8)
_BRACKET_STEP[[ord("["), ord("{")]] = 1
_BRACKET_STEP[[ord("]"), ord("}")]] = -1
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _within_format_depth(data: bytes) -> bool:
    """True when data has no backslash and nests at most _FORMAT_DEPTH deep.

    Without a backslash no quote is escaped, so the strings are the spans
    between alternate quotes and their brackets are skipped.  The bound
    keeps orjson, which recurses without limit and overflows the C stack
    on deep nesting, to documents that json.loads parses as well.
    """
    if b"\\" in data:
        return False
    marks = np.frombuffer(data.translate(None, _NOT_MARKS), dtype=np.uint8)
    step = _BRACKET_STEP[marks]
    step[np.cumsum(marks == ord('"')) % 2 == 1] = 0
    return np.cumsum(step).max(initial=0) <= _FORMAT_DEPTH


def _load(path: str, fast, slow):
    """Decode the file at path: fast(data, orjson.loads), else slow(document).

    fast runs only on a file within the format's depth.  When it returns
    None, or orjson or the decoder refuses the file, the file is parsed
    again by _parse_text and decoded by slow, so every error message comes
    from the json route.
    """
    data = _read_bytes(path)
    if _within_format_depth(data):
        # imported on the first file read, so that import expconvex.cli and
        # verify never load it
        import orjson

        try:
            result = fast(data, orjson.loads)
        except (orjson.JSONDecodeError, MatrixFileError):
            result = None
        if result is not None:
            return result
    return slow(_parse_text(path, data))


def load_matrix(path: str) -> np.ndarray:
    """Load a single-matrix file."""
    return _load(
        path,
        lambda data, loads: matrix_from_doc(loads(data), where=path),
        lambda doc: matrix_from_doc(doc, where=path),
    )


def _same_shape(a: np.ndarray, b: np.ndarray, path: str) -> tuple[np.ndarray, np.ndarray]:
    if a.shape != b.shape:
        raise MatrixFileError(
            f"{path}: A is {a.shape[0]}x{a.shape[0]} but B is {b.shape[0]}x{b.shape[0]}"
        )
    return a, b


def _pair_from_doc(doc, path: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: expected an object at top level")
    for key in ("A", "B"):
        if key not in doc:
            raise MatrixFileError(f"{path}: missing key '{key}'")
    a = matrix_from_doc(doc["A"], where=f"{path}: A")
    b = matrix_from_doc(doc["B"], where=f"{path}: B")
    return _same_shape(a, b, path)


_SPACE = rb"[ \t\n\r]*"
# the bytes before, between and after the two matrix objects of a pair file
# whose top level holds the keys "A" and "B" and no other; compiled on first
# use, by re's cache
_PAIR_HEAD = _SPACE + rb'\{' + _SPACE + rb'"([AB])"' + _SPACE + b":" + _SPACE
_PAIR_MID = _SPACE + b"," + _SPACE + rb'"([AB])"' + _SPACE + b":" + _SPACE
_PAIR_TAIL = _SPACE + rb"\}" + _SPACE


def _pair_by_parts(data: bytes, path: str, loads):
    """(A, B) from one parse per matrix object, or None for another layout.

    Each matrix is decoded before the next one is parsed, so the parse trees
    of the two never exist at once.  A part that does not parse as a whole
    object, or a key or byte between the parts that does not match, sends
    the file to the json route.
    """
    first = data.find(b"{", data.find(b"{") + 1)
    first_end = data.find(b"}", first) + 1
    second = data.find(b"{", first_end)
    second_end = data.find(b"}", second) + 1
    if min(first, first_end, second, second_end) <= 0:  # a brace is missing
        return None
    head = re.fullmatch(_PAIR_HEAD, data[:first])
    mid = re.fullmatch(_PAIR_MID, data[first_end:second])
    if not (head and mid and head[1] != mid[1] and re.fullmatch(_PAIR_TAIL, data[second_end:])):
        return None
    view = memoryview(data)
    parts = {head[1]: view[first:first_end], mid[1]: view[second:second_end]}
    a = matrix_from_doc(loads(parts[b"A"]), where=f"{path}: A")
    b = matrix_from_doc(loads(parts[b"B"]), where=f"{path}: B")
    return _same_shape(a, b, path)


def load_pair(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a two-matrix file with keys "A" and "B"."""
    return _load(
        path,
        lambda data, loads: _pair_by_parts(data, path, loads),
        lambda doc: _pair_from_doc(doc, path),
    )


def reduction_to_doc(result, residuals: tuple[float, float]) -> dict:
    """Encode a reduction result together with its intermediate quantities.

    Omega = diag(omegas), W_block = Omega V_block and g_abs = |g| are
    rebuilt from the trace exactly as reduce computes them.
    """
    tr = result.trace
    omega = np.diag(tr.omegas)
    return {
        "W": matrix_to_doc(result.W.mat),
        "L": matrix_to_doc(result.L.mat),
        "M": matrix_to_doc(result.M.mat),
        "residuals": {
            "wavw_minus_l": float(residuals[0]),
            "wbw_minus_m": float(residuals[1]),
        },
        "trace": {
            "U": matrix_to_doc(tr.U.mat),
            "B_block": matrix_to_doc(tr.B_block.mat),
            "b_col": complex_vector_to_doc(tr.b_col),
            "mu_n": float(tr.mu_n),
            "V_block": matrix_to_doc(tr.V_block.mat),
            "M_block": real_vector_to_doc(tr.M_block),
            "g": complex_vector_to_doc(tr.g),
            "omegas": complex_vector_to_doc(tr.omegas),
            "Omega": matrix_to_doc(omega),
            "W_block": matrix_to_doc(omega @ tr.V_block.mat),
            "g_abs": real_vector_to_doc(np.abs(tr.g)),
        },
    }


def measure_to_doc(measure: AtomicMeasure) -> dict:
    return {
        "atoms": [[loc, w] for loc, w in measure.atoms],
        "total_mass": measure.total_mass,
    }


def fit_to_doc(fit: MeasureFit) -> dict:
    return {
        "measure": measure_to_doc(fit.measure),
        "grid_resolution": int(fit.grid_resolution),
        "training_residual": float(fit.training_residual),
        "holdout_error": float(fit.holdout_error),
    }


def ec_report_to_doc(report, label: str, grid_points: np.ndarray) -> dict:
    return {
        "label": label,
        "grid": real_vector_to_doc(grid_points),
        "passed": bool(report.passed),
        "min_eigenvalue": float(report.min_eigenvalue),
        "tolerance": float(report.tolerance),
        "witness": None if report.passed else complex_vector_to_doc(report.witness),
    }


def dumps_doc(doc) -> str:
    """Deterministic serialization: sorted keys, two-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_doc(path: str, doc) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_doc(doc))
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc.strerror or exc}") from exc
