"""JSON interchange for complex matrices, reductions, measures, and reports.

A matrix document is {"n": dim, "entries": [[re, im], ...]} with entries in
row-major order; a pair file holds two such documents under keys "A" and
"B".  A pair file takes one of two routes.  When both matrix objects are
canonical, with just the keys "n" and "entries" and n a plain integer, the
entries of each are parsed by orjson as one flat array of numbers.  Any
other file is parsed by json and decoded entry by entry, and that route
reports every error.  All writers serialize with sorted keys and fixed
indentation so that output bytes are deterministic: orjson writes the
text, and the few number tokens it writes differently from json are
rewritten, so the bytes are json.dumps's.
"""

from __future__ import annotations

import io
import json
import math
import re

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


def matrix_from_doc(doc, where: str = "matrix") -> np.ndarray:
    """Decode a {n, entries} document, naming the first defect by index, row and column."""
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
    z = [_entry_to_complex(e, k, n, where) for k, e in enumerate(entries)]
    return np.array(z, dtype=complex).reshape(n, n)


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


_SPACE = rb"[ \t\n\r]*"
_SPACE_BYTES = (b" ", b"\t", b"\n", b"\r")
# the bytes before and after the entries array of a canonical matrix object:
# the keys "n" and "entries" and no other, in either order, with n a plain
# positive integer of at most nine digits; compiled on first use, by re's cache
_N_KEY = rb'"n"' + _SPACE + b":" + _SPACE + rb"([1-9][0-9]{0,8})" + _SPACE
_FLAT_HEAD = (_SPACE + rb"\{" + _SPACE + rb"(?:" + _N_KEY + b"," + _SPACE + rb')?"entries"'
              + _SPACE + b":" + _SPACE)
_FLAT_TAIL = _SPACE + rb"(?:," + _SPACE + _N_KEY + rb")?\}" + _SPACE
# every byte that can be part of a JSON number
_NUMBER_BYTES = b"0123456789+-.eE"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _pairs_of_numbers(data: bytes, first: int, last: int, n: int) -> bool:
    """True when data[first:last + 1] reads as n*n [re, im] arrays of number bytes.

    Without numbers and spaces it must read [[,],[,],...,[,]]: no other
    byte, so no string, literal or object, and no other shape.  Without
    spaces, the arrays must be joined by "],[" alone, so no number byte
    lies outside them.  A slot may still hold no number, or a malformed
    one; orjson refuses both.
    """
    packed = data[first:last + 1]
    for space in _SPACE_BYTES:
        packed = packed.replace(space, b"")
    skeleton = packed.translate(None, _NUMBER_BYTES)
    # lengths first, so that a huge n allocates nothing
    if len(skeleton) != 4 * n * n + 1 or skeleton != b"[" + b"[,]," * (n * n - 1) + b"[,]]":
        return False
    return (packed.startswith(b"[[") and packed.endswith(b"]]")
            and packed.count(b"],[") == n * n - 1)


def _flat_matrix(data: bytes, lo: int, hi: int, loads) -> np.ndarray | None:
    """The canonical matrix object at data[lo:hi], or None for any other.

    The entries are parsed by one loads call as a flat array of numbers, so
    no [re, im] list is built.  The numbers loads parses are the file's own
    tokens, so the doubles are those json would parse.  The array loads
    gets has no bracket inside it, so its nesting is one level whatever the
    file holds.
    """
    first, last = data.find(b"[", lo, hi), data.rfind(b"]", lo, hi)
    if not 0 <= first < last:
        return None
    head = re.compile(_FLAT_HEAD).fullmatch(data, lo, first)
    tail = re.compile(_FLAT_TAIL).fullmatch(data, last + 1, hi)
    if not (head and tail) or (head[1] is None) == (tail[1] is None):
        return None
    n = int(head[1] or tail[1])
    if not _pairs_of_numbers(data, first, last, n):
        return None
    # the brackets become spaces, a plain byte map and faster than deleting
    # them, so that the 2n*n comma-separated fields are the slots of the pairs
    try:
        values = loads(b"".join((b"[", data[first + 1:last].translate(_BRACKETS_TO_SPACES), b"]")))
    except json.JSONDecodeError:  # orjson's error is a subclass
        return None
    flat = np.fromiter(values, float, count=2 * n * n)
    # the view pairs each (re, im) into the bits complex(re, im) has, -0.0 included
    return flat.view(complex).reshape(n, n) if np.isfinite(flat).all() else None


def _pair_from_doc(doc, path: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: expected an object at top level")
    for key in ("A", "B"):
        if key not in doc:
            raise MatrixFileError(f"{path}: missing key '{key}'")
    a = matrix_from_doc(doc["A"], where=f"{path}: A")
    b = matrix_from_doc(doc["B"], where=f"{path}: B")
    if a.shape != b.shape:
        raise MatrixFileError(
            f"{path}: A is {a.shape[0]}x{a.shape[0]} but B is {b.shape[0]}x{b.shape[0]}"
        )
    return a, b


# the bytes before, between and after the two matrix objects of a pair file
# whose top level holds the keys "A" and "B" and no other; compiled on first
# use, by re's cache
_PAIR_HEAD = _SPACE + rb'\{' + _SPACE + rb'"([AB])"' + _SPACE + b":" + _SPACE
_PAIR_MID = _SPACE + b"," + _SPACE + rb'"([AB])"' + _SPACE + b":" + _SPACE
_PAIR_TAIL = _SPACE + rb"\}" + _SPACE


def _pair_by_parts(data: bytes, loads) -> tuple[np.ndarray, np.ndarray] | None:
    """(A, B) from _flat_matrix on each matrix object, or None for any other file.

    Each matrix is decoded before the next one is parsed, so the parses of
    the two never exist at once.  A key or byte between the parts that does
    not match, an object that is not canonical, or matrices of two sizes
    send the file to the json route.
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
    parts = {head[1]: (first, first_end), mid[1]: (second, second_end)}
    a = _flat_matrix(data, *parts[b"A"], loads)
    b = None if a is None else _flat_matrix(data, *parts[b"B"], loads)
    return None if b is None or a.shape != b.shape else (a, b)


def load_pair(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a two-matrix file with keys "A" and "B".

    A file whose two matrix objects are canonical takes _pair_by_parts.
    Any other file is parsed by _parse_text and decoded by matrix_from_doc,
    which write every error message; a valid file that is not canonical
    loads there too, only more slowly.
    """
    data = _read_bytes(path)
    # imported on the first file read, so that import expconvex.cli and
    # verify never load it
    import orjson

    pair = _pair_by_parts(data, orjson.loads)
    return pair if pair is not None else _pair_from_doc(_parse_text(path, data), path)


def reduction_to_doc(result, residuals: tuple[float, float]) -> dict:
    """Encode a reduction result together with its intermediate quantities.

    Omega = diag(omegas), W_block = Omega V_block and g_abs = |g| are
    rebuilt from the trace exactly as reduce computes them.
    """
    tr = result.trace
    omega = np.diag(tr.omegas)
    return {
        "W": matrix_to_doc(result.W),
        "L": matrix_to_doc(result.L.mat),
        "M": matrix_to_doc(result.M.mat),
        "residuals": {
            "wavw_minus_l": float(residuals[0]),
            "wbw_minus_m": float(residuals[1]),
        },
        "trace": {
            "U": matrix_to_doc(tr.U),
            "B_block": matrix_to_doc(tr.B_block.mat),
            "b_col": complex_vector_to_doc(tr.b_col),
            "mu_n": float(tr.mu_n),
            "V_block": matrix_to_doc(tr.V_block),
            "M_block": real_vector_to_doc(tr.M_block),
            "g": complex_vector_to_doc(tr.g),
            "omegas": complex_vector_to_doc(tr.omegas),
            "Omega": matrix_to_doc(omega),
            "W_block": matrix_to_doc(omega @ tr.V_block),
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


# orjson writes the shortest round-trip digits of a float, as float.__repr__
# does, and lays them out differently in two cases only: its exponents have
# no "+" and no leading zero ("1e-7", "1e16" where repr writes "1e-07",
# "1e+16"), and it writes magnitudes in [1e-5, 1e-4) in fixed point
# ("0.00001234" where repr writes "1.234e-05").  In indented output only a
# number can end a line before ",\n" or "\n", so these patterns find every
# such token, and each begins with a literal, which re scans for quickly;
# compiled on first use, by re's cache
_ORJSON_EXPONENT = rb"e(-?)([0-9]+)(?=,?\n)"
_ORJSON_FIXED_POINT = rb"0\.0000[0-9]*(?=,?\n)"


def _repr_exponent(match) -> bytes:
    return b"e" + (match[1] or b"+") + match[2].rjust(2, b"0")


def _repr_fixed_point(match) -> bytes:
    """repr of a token 0.0000..., unless the match is the tail of a longer number."""
    at = match.start()
    if at and match.string[at - 1] not in b" -":
        return match[0]
    return repr(float(match[0])).encode()


def _holds_non_finite(doc) -> bool:
    """Whether a document orjson wrote, so one of exact JSON types, holds a NaN or an infinity."""
    if type(doc) is float:
        return not math.isfinite(doc)
    if type(doc) is dict:
        return any(map(_holds_non_finite, doc.values()))
    if type(doc) in (list, tuple):
        return any(map(_holds_non_finite, doc))
    return False


def dumps_doc(doc) -> str:
    """Deterministic serialization: sorted keys, two-space indent, newline.

    The text is json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    plus a newline, byte for byte, and where that call raises, this raises
    the same error, for any document of dicts, lists, tuples, strings,
    numbers, booleans and None.  orjson writes it, and its float tokens are
    laid out as repr lays them out.  json itself writes any document orjson
    refuses (a non-str key, an int beyond 64 bits, a subclass of a JSON
    type, deep nesting, a cycle), any document with a NaN or an infinity,
    which orjson writes as null (so a text that holds null has its document
    searched for one), and any text that holds DEL or a non-ASCII byte,
    which json would escape.  Enum members and UUIDs, which orjson writes
    and json refuses, are the exception.
    """
    # imported on the first write, so that import expconvex.cli never loads it
    import orjson

    try:
        data = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                            | orjson.OPT_PASSTHROUGH_SUBCLASS | orjson.OPT_PASSTHROUGH_DATACLASS
                            | orjson.OPT_PASSTHROUGH_DATETIME)
    except orjson.JSONEncodeError:
        data = None
    if (data is None or b"\x7f" in data or not data.isascii()
            or (b"null" in data and _holds_non_finite(doc))):
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    # the newline first, so that a number at the top level ends a line too
    data = re.sub(_ORJSON_EXPONENT, _repr_exponent, data + b"\n")
    return re.sub(_ORJSON_FIXED_POINT, _repr_fixed_point, data).decode("ascii")


def write_doc(path: str, doc) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_doc(doc))
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc.strerror or exc}") from exc
