"""JSON interchange for complex matrices, reductions, measures, and reports.

A matrix document is {"n": dim, "entries": [[re, im], ...]} with entries in
row-major order; a pair file holds two such documents under keys "A" and
"B".  A pair file takes one of two routes.  When its two entries arrays
can be cut out and parsed by orjson as flat arrays of numbers, and the
rest of the file passes the json route's checks, it takes the flat route.
Any other file is parsed by json and decoded entry by entry, and that
route reports every error.  All writers serialize with sorted keys and
fixed indentation so that output bytes are deterministic: orjson writes
the text, and the few number tokens it writes differently from json are
rewritten, so the bytes are json.dumps's.
"""

from __future__ import annotations

import io
import json
import math
import re
import struct

import numpy as np

from .errors import MatrixFileError
from .reduction import phase_matrix
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


def _size_and_entries(doc, where: str) -> tuple[int, object]:
    """n and the entries of a matrix object, after the checks both load routes make."""
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
    return n, entries


def matrix_from_doc(doc, where: str = "matrix") -> np.ndarray:
    """Decode a {n, entries} document, naming the first defect by index, row and column."""
    n, entries = _size_and_entries(doc, where)
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


_SPACE_BYTES = (b" ", b"\t", b"\n", b"\r")
# every byte that can be part of a JSON number
_NUMBER_BYTES = b"0123456789+-.eE"
# the size past which a piece of an entries array ends: small enough that its copies stay in
# the heap that malloc reuses, large enough that the calls per piece cost nothing
_PIECE_BYTES = 1 << 16


def _flat_matrix(data: bytes, first: int, last: int, n: int) -> np.ndarray | None:
    """The n x n matrix whose entries array is data[first:last + 1], or None when it is not one.

    The inside of the array is read in pieces, so that no copy of the whole array is made: a
    piece ends before the first "," that follows a "]" found past _PIECE_BYTES, and the next
    starts after that ",".  Each piece is checked on its own.  Without spaces it must start "["
    and end "]", and without numbers too it must read [,],[,],...,[,], k pairs and no other
    byte, so no string, literal or object; with the numbers, its pairs must be joined by "],["
    alone, k - 1 times, so that no number byte lies outside a pair.  A slot may still hold no
    number, or a malformed one; orjson refuses both.  Then the piece's brackets become spaces
    and orjson parses it as one flat array of 2k numbers, which struct packs into the next 2k
    of the 2n*n doubles of the result, so no [re, im] list is built.  A "," after the last
    pair leaves an empty last piece, which is refused, and the pieces must hold n*n pairs.

    The numbers orjson parses are the file's own tokens, so the doubles are those json would
    parse; orjson refuses one past the double range, so each is finite.  The array orjson gets
    has no bracket inside it, so its nesting is one level whatever the file holds.  A valid
    array is cut at its joins only, so it passes; any other may be left to the json route.
    """
    count = n * n
    # the least a valid array takes is [[0,0],...,[0,0]], 6n*n + 1 bytes: a shorter span
    # leaves before anything of size n is built
    if last - first < 6 * count:
        return None
    # imported on the first entries array parsed, not when expconvex.cli or verify is imported
    import orjson

    flat = np.empty(2 * count)
    pairs, start = 0, first + 1
    while start <= last:
        split = data.find(b"]", start + _PIECE_BYTES, last)
        split = data.find(b",", split, last) if split >= 0 else -1
        end = last if split < 0 else split
        piece = packed = data[start:end]
        for space in _SPACE_BYTES:
            packed = packed.replace(space, b"")
        skeleton = packed.translate(None, _NUMBER_BYTES)
        k = (len(skeleton) + 1) // 4
        if not (packed.startswith(b"[") and packed.endswith(b"]") and pairs + k <= count
                and skeleton == (b"[,]," * k)[:-1] and packed.count(b"],[") == k - 1):
            return None
        piece = piece.replace(b"[", b" ").replace(b"]", b" ")
        try:
            values = orjson.loads(b"".join((b"[", piece, b"]")))
        except json.JSONDecodeError:  # orjson's error is a subclass
            return None
        struct.pack_into(f"{2 * k}d", flat, 16 * pairs, *values)
        pairs, start = pairs + k, end + 1
    if pairs != count:
        return None
    # the view pairs each (re, im) into the bits complex(re, im) has, -0.0 included
    return flat.view(complex).reshape(n, n)


def _pair_objects(doc, path: str) -> tuple[object, object]:
    """The A and B objects of a pair document, after the top-level checks both routes make."""
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: expected an object at top level")
    for key in ("A", "B"):
        if key not in doc:
            raise MatrixFileError(f"{path}: missing key '{key}'")
    return doc["A"], doc["B"]


def _pair_from_doc(doc, path: str) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of a pair document parsed by json, A decoded first so that its error comes first."""
    doc_a, doc_b = _pair_objects(doc, path)
    a = matrix_from_doc(doc_a, where=f"{path}: A")
    b = matrix_from_doc(doc_b, where=f"{path}: B")
    if a.shape != b.shape:
        raise MatrixFileError(
            f"{path}: A is {a.shape[0]}x{a.shape[0]} but B is {b.shape[0]}x{b.shape[0]}"
        )
    return a, b


def _pair_by_parts(data: bytes, on_b) -> tuple[np.ndarray, np.ndarray] | None:
    """(A, B) with both entries arrays parsed by _flat_matrix, or None for the json route.

    Each entries array runs from the first "[" after the previous matrix object
    to the last "]" before the next "}".  With "[0]" and "[1]" in their place,
    the only arrays left, the short text goes through json.loads and the json
    route's checks; a file that passes them, with arrays that parse as numbers,
    parses as the short text with the arrays put back.  B's entries are parsed
    before A's, with on_b called between them as load_pair says, so the parses of
    the two never exist at once.
    """
    spans, end = [], 0
    for _ in range(2):
        first = data.find(b"[", end)
        end = data.find(b"}", first)
        last = data.rfind(b"]", first, end)
        if min(first, end, last) < 0:
            return None
        spans.append((first, last))
    (first_a, last_a), (first_b, last_b) = spans
    short = b"".join((data[:first_a], b"[0]", data[last_a + 1:first_b], b"[1]", data[last_b + 1:]))
    if short.count(b"[") != 2:
        return None
    # decoded here: json.loads of bytes would skip a byte-order mark, which the json route refuses
    try:
        doc_a, doc_b = _pair_objects(json.loads(short.decode("utf-8")), "")
        # each entries array is a placeholder: [i] stands for spans[i]
        n, placeholder_a = _size_and_entries(doc_a, "A")
        n_b, placeholder_b = _size_and_entries(doc_b, "B")
    except (MatrixFileError, ValueError, RecursionError):
        return None
    if n_b != n:
        return None
    b = _flat_matrix(data, *spans[placeholder_b[0]], n)
    if b is None:
        return None
    if on_b is not None:
        on_b(b)
    a = _flat_matrix(data, *spans[placeholder_a[0]], n)
    return None if a is None else (a, b)


def load_pair(path: str, on_b=None) -> tuple[np.ndarray, np.ndarray]:
    """Load a two-matrix file with keys "A" and "B".

    A file whose two entries arrays orjson can parse as flat arrays of
    numbers takes _pair_by_parts.  Any other file is parsed by _parse_text
    and decoded by matrix_from_doc, which write every error message; a
    valid file that _pair_by_parts refuses loads there too, only more slowly.
    The flat route calls on_b(B) once, after both declared sizes agree and
    B's entries are parsed, before A's; the json route calls none.  A file
    that leaves the flat route after that may still load by the json route,
    with a B decoded afresh.
    """
    data = _read_bytes(path)
    pair = _pair_by_parts(data, on_b)
    return pair if pair is not None else _pair_from_doc(_parse_text(path, data), path)


def reduction_to_doc(result, residuals: tuple[float, float]) -> dict:
    """Encode a reduction result together with its intermediate quantities.

    mu_n and M_block are read off M's diagonal; g = V_block b_col,
    omegas = phase_matrix(g), Omega = diag(omegas), W_block = Omega V_block
    and g_abs = |g| are rebuilt from the result exactly as reduce computes them.
    """
    m_diag = result.M.mat.diagonal().real
    g = result.V_block @ result.b_col
    omegas = phase_matrix(g)
    omega = np.diag(omegas)
    return {
        "W": matrix_to_doc(result.W),
        "L": matrix_to_doc(result.L.mat),
        "M": matrix_to_doc(result.M.mat),
        "residuals": {
            "wavw_minus_l": float(residuals[0]),
            "wbw_minus_m": float(residuals[1]),
        },
        "trace": {
            "U": matrix_to_doc(result.U),
            "B_block": matrix_to_doc(result.B_block.mat),
            "b_col": complex_vector_to_doc(result.b_col),
            "mu_n": float(m_diag[-1]),
            "V_block": matrix_to_doc(result.V_block),
            "M_block": real_vector_to_doc(m_diag[:-1]),
            "g": complex_vector_to_doc(g),
            "omegas": complex_vector_to_doc(omegas),
            "Omega": matrix_to_doc(omega),
            "W_block": matrix_to_doc(omega @ result.V_block),
            "g_abs": real_vector_to_doc(np.abs(g)),
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
