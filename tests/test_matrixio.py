"""Tests for the JSON matrix interchange format and report serializers."""

import dataclasses
import datetime
import json
import re
import struct
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconvex import (
    MatrixFileError,
    ScalarFunction,
    TGrid,
    check_exponential_convexity,
    gram,
    hermitian_from_diag,
    psd_check,
    random_rank_one_pair,
    reduce,
    reduction_residuals,
    validate_hermitian,
)
from expconvex import cli, matrixio
from expconvex.matrixio import (
    _entry_to_complex,
    _parse_text,
    complex_vector_to_doc,
    dumps_doc,
    ec_report_to_doc,
    fit_to_doc,
    load_pair,
    matrix_from_doc,
    matrix_to_doc,
    measure_to_doc,
    real_vector_to_doc,
    reduction_to_doc,
    write_doc,
)
from expconvex.transform import AtomicMeasure, MeasureFit
from expconvex.verify import run_verification


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


# awkward but valid numbers: signed zeros, subnormals, the double range's
# edges, and an int that float() must round (2**53 + 1 is not a double)
_EDGE_NUMBERS = [0, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 2**53 + 1, -(2**53 + 1),
                 1e308, -1e308, 1.7976931348623157e308, 3, -7, 0.1]


def _random_entries(rng, n):
    def number():
        if rng.random() < 0.5:
            return _EDGE_NUMBERS[rng.integers(len(_EDGE_NUMBERS))]
        return float(rng.standard_normal()) * 10.0 ** int(rng.integers(-300, 300))

    return [[number(), number()] for _ in range(n * n)]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_bulk_decode_bitwise_equals_positional(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        entries = _random_entries(rng, n)
        entries[0] = [-0.0, -0.0]
        got = matrix_from_doc({"n": n, "entries": entries})
        per_entry = [complex(re, im) for re, im in entries]
        positional = [_entry_to_complex(e, k, n, "m") for k, e in enumerate(entries)]
        assert got.dtype == complex and got.shape == (n, n)
        assert got.tobytes() == np.array(per_entry, dtype=complex).tobytes()
        assert got.tobytes() == np.array(positional, dtype=complex).tobytes()


def test_decode_accepts_subclasses_through_positional_path():
    class Pair(list):
        pass

    doc = {"n": 2, "entries": [Pair([1, 0]), (np.float64(0.5), 0), [0, np.float64(-0.0)], [1, 0]]}
    got = matrix_from_doc(doc)
    expected = [complex(1, 0), complex(0.5, 0), complex(0, -0.0), complex(1, 0)]
    assert got.tobytes() == np.array(expected).tobytes()


_DEFECTS = {
    "bool": ([True, 0], "re and im must be numbers, got [True, 0]"),
    "string": ([0, "1.5"], "re and im must be numbers, got [0, '1.5']"),
    "none": ([None, 0], "re and im must be numbers, got [None, 0]"),
    "dict": ({"re": 1, "im": 0}, "expected an [re, im] pair, got {'re': 1, 'im': 0}"),
    "nested": ([[1, 0], 0], "re and im must be numbers, got [[1, 0], 0]"),
    "scalar": (1.0, "expected an [re, im] pair, got 1.0"),
    "one": ([1.0], "expected an [re, im] pair, got [1.0]"),
    "three": ([1.0, 0.0, 0.0], "expected an [re, im] pair, got [1.0, 0.0, 0.0]"),
    "nan": ([0.0, float("nan")], "non-finite value [0.0, nan]"),
    "infinity": ([float("inf"), 0.0], "non-finite value [inf, 0.0]"),
    "huge-int": ([0, 10**400], "number outside double range"),
}


@pytest.mark.parametrize("spot", ["middle", "last"])
@pytest.mark.parametrize("kind", sorted(_DEFECTS))
def test_decode_names_first_defect_like_positional_checker(kind, spot):
    defect, text = _DEFECTS[kind]
    n = 7
    entries = [[float(k), -0.5] for k in range(n * n)]
    k = n * n // 2 if spot == "middle" else n * n - 1
    entries[k] = defect
    if spot == "middle":
        entries[-1] = [float("nan"), 0.0]  # a later defect is not the one named
    row, col = divmod(k, n)
    expected = f"B: entry {k} (row {row}, col {col}): {text}"
    with pytest.raises(MatrixFileError) as direct:
        _entry_to_complex(defect, k, n, "B")
    assert str(direct.value) == expected
    with pytest.raises(MatrixFileError) as decoded:
        matrix_from_doc({"n": n, "entries": entries}, where="B")
    assert str(decoded.value) == expected


@pytest.mark.parametrize(
    "text, reason",
    [('{"n": 1, "entries": [[1' + "0" * 5000 + ', 0]]}', "4300 digits"),
     ("[" * 100000, "recursion depth"),
     ('{"n": 1, "entries": [[1, 0]], "x": ' + '{"a": ' * 100000 + "0" + "}" * 100000 + "}",
      "recursion depth")],
    ids=["digit-limit", "nesting", "nested-extra-key"],
)
def test_load_names_path_on_decoder_limits(tmp_path, text, reason):
    f = tmp_path / "limits.json"
    f.write_text(f'{{"A": {text}, "B": {{"n": 1, "entries": [[0, 0]]}}}}')
    loaded = []
    with pytest.MonkeyPatch.context() as mp:
        _spy_orjson(mp, loaded)
        with pytest.raises(MatrixFileError, match=rf"^{f}: .*{reason}"):
            load_pair(str(f))
    assert all(map(_one_flat_array, loaded))


PARITY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_FLOAT_EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1e308, -1e308, 1.7976931348623157e308]
_INT_EDGES = [2**53 + 1, 2**63, 2**64 + 1, -(2**53 + 1), -(2**63) - 1, -(2**64 + 1)]
_SPELLINGS = ["1E+2", "-0", "1e-400", "-1e-400", "0e0", "1.5E-3", "-0.0e+0", "1e-320"]


def _spellings_of(x):
    # shortest repr and long decimal expansions that round back to or near x
    return st.sampled_from([repr(x), f"{x:.25e}", f"{x:.40E}", f"{x:.60e}"])


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(_spellings_of),
    st.sampled_from(_FLOAT_EDGES).flatmap(_spellings_of),
    st.sampled_from(_INT_EDGES).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(_SPELLINGS),
    st.from_regex(r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
SPACES = st.sampled_from(["", " ", "\n", "\r\n", "\r", "\t", " \r\n\t "])
# an extra key of a matrix object, possibly repeated, which both routes ignore:
# a value with no bracket leaves the file to the flat route, and a bracket,
# even inside a string, where it does not nest, sends it to the json route
BRACKET_EXTRAS = [', "note": "[[[[[["', ', "note": "]]]"', ', "note": [1, [2e5]]']
EXTRAS = st.sampled_from(
    ["", ', "note": "x"', ', "note": 3.5', ', "note": null', ', "note": "}"',
     ', "note": 1, "note": "x"', *BRACKET_EXTRAS])


@st.composite
def pair_texts(draw):
    n = draw(st.integers(1, 3))

    def sp():
        return draw(SPACES)

    def matrix():
        entries = ",".join(
            f"{sp()}[{sp()}{draw(NUMBERS)}{sp()},{sp()}{draw(NUMBERS)}{sp()}]"
            for _ in range(n * n)
        )
        return (f'{{{sp()}"n"{sp()}:{sp()}{n}{sp()},{sp()}"entries"{sp()}:'
                f'{sp()}[{entries}{sp()}]{draw(EXTRAS)}{sp()}}}')

    first, second = draw(st.permutations("AB"))
    return (f'{sp()}{{{sp()}"{first}"{sp()}:{sp()}{matrix()}{sp()},{sp()}"{second}"{sp()}:'
            f'{sp()}{matrix()}{sp()}}}{sp()}')


@pytest.fixture(scope="module")
def pair_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parity") / "pair.json"


def _refuse(data):
    raise orjson.JSONDecodeError("refused", "", 0)


def _spy_orjson(mp, loaded):
    """Record in loaded the bytes of each orjson.loads call."""
    real = orjson.loads
    mp.setattr(orjson, "loads", lambda data: loaded.append(bytes(data)) or real(data))


def _one_flat_array(data):
    """True when data is one array with no array or object inside it.

    This is all orjson may parse: its nesting is one level whatever the
    file holds, so no file can take orjson past its recursion limit.
    """
    return (data.startswith(b"[") and data.endswith(b"]")
            and not any(mark in data[1:-1] for mark in (b"[", b"]", b"{")))


def _load_outcome(path, on_b=None):
    """(A, B) as int64 views of their bits, or the error text."""
    try:
        a, b = load_pair(str(path), on_b)
    except MatrixFileError as exc:
        return str(exc)
    return a.view(np.int64), b.view(np.int64)


def _json_route_outcome(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "loads", _refuse)  # forces the json route
        return _load_outcome(path)


# piece sizes of the flat route: at 1, 3 and 8 bytes a piece ends after nearly every pair, so
# that a defect also sits at or beside a piece boundary, and a valid file is read in many pieces
_PIECE_SIZES = (1, 3, 8, matrixio._PIECE_BYTES)


def _at_each_piece_size():
    """A MonkeyPatch context per piece size, with matrixio._PIECE_BYTES set to it."""
    for piece in _PIECE_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrixio, "_PIECE_BYTES", piece)
            yield mp


@PARITY
@given(text=pair_texts())
def test_orjson_route_decodes_like_json_route(pair_path, text):
    pair_path.write_bytes(text.encode())
    slow = _json_route_outcome(pair_path)
    for mp in _at_each_piece_size():
        reparsed, loaded = [], []
        mp.setattr(matrixio, "_parse_text",
                   lambda *args: reparsed.append(args) or _parse_text(*args))
        _spy_orjson(mp, loaded)
        fast = _load_outcome(pair_path)
        if isinstance(slow, str):
            assert fast == slow
        else:
            assert not isinstance(fast, str), fast
            assert all(np.array_equal(f, s) for f, s in zip(fast, slow))
        if any(extra in text for extra in BRACKET_EXTRAS):  # a bracket outside the entries arrays
            assert reparsed
        assert all(map(_one_flat_array, loaded))


def _spy(mp, name, calls):
    """Record in calls each call of matrixio.name, with its result."""
    real = getattr(matrixio, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((name, result))
        return result

    mp.setattr(matrixio, name, spy)


def _same_outcome(got, expected):
    if isinstance(expected, str) or isinstance(got, str):
        return got == expected
    return all(np.array_equal(g, e) for g, e in zip(got, expected))


@st.composite
def canonical_pair_texts(draw):
    """Pair files whose matrix objects hold just "n" and "entries"."""
    n = draw(st.integers(1, 3))
    spellings = []

    def number():
        spellings.append(draw(NUMBERS))
        return f"@{len(spellings) - 1}"

    def matrix():
        entries = [[number(), number()] for _ in range(n * n)]
        items = [("n", n), ("entries", entries)]
        return dict(items[::-1] if draw(st.booleans()) else items)

    first, second = draw(st.permutations("AB"))
    doc = {first: matrix(), second: matrix()}
    if draw(st.booleans()):
        text = json.dumps(doc, indent=2)
    else:
        # every separator of json.dumps, with the whitespace around it drawn
        text = re.sub(r"[\[\]{},:] ?", lambda m: draw(SPACES) + m[0].strip() + draw(SPACES),
                      json.dumps(doc))
    return re.sub(r'"@(\d+)"', lambda m: spellings[int(m[1])], text)


@PARITY
@given(text=canonical_pair_texts())
def test_flat_tier_decodes_like_json_route(pair_path, text):
    pair_path.write_bytes(text.encode())
    slow = _json_route_outcome(pair_path)
    for mp in _at_each_piece_size():
        calls, loaded = [], []
        for name in ("matrix_from_doc", "_parse_text"):
            _spy(mp, name, calls)
        _spy_orjson(mp, loaded)
        fast = _load_outcome(pair_path)
        assert _same_outcome(fast, slow)
        if not isinstance(slow, str):
            # both objects took the flat route: no json parse, no per-entry decode
            assert not calls, calls
        assert all(map(_one_flat_array, loaded))


# near-canonical matrix objects: each leaves the flat route, and the file
# then loads, or fails, exactly as on the json route
_B = '{"n": 1, "entries": [[0, 0]]}'
_NEAR_CANONICAL = {
    "true": '{"n": 2, "entries": [[true, 0], [0, 0], [0, 0], [1, 0]]}',
    "false": '{"n": 2, "entries": [[1, 0], [0, false], [0, 0], [1, 0]]}',
    "null": '{"n": 2, "entries": [[1, 0], [0, 0], [null, 0], [1, 0]]}',
    "string": '{"n": 2, "entries": [[1, 0], [0, 0], [0, 0], ["1", 0]]}',
    "three-element": '{"n": 2, "entries": [[1, 0], [0, 0, 0], [0, 0], [1, 0]]}',
    "n2-minus-1": '{"n": 2, "entries": [[1, 0], [0, 0], [0, 0]]}',
    "n2-plus-1": '{"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0], [0, 0]]}',
    "n-zero": '{"n": 0, "entries": []}',
    "n-leading-zero": '{"n": 01, "entries": [[1, 0]]}',
    "n-float": '{"n": 2.0, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
    "n-10-digits": '{"n": 1000000000, "entries": [[1, 0]]}',
    "n-negative": '{"n": -1, "entries": [[1, 0]]}',
    "n-string": '{"n": "1", "entries": [[1, 0]]}',
    "1e400": '{"n": 2, "entries": [[1, 0], [0, 1e400], [0, 0], [1, 0]]}',
    "int-400-digits": '{"n": 1, "entries": [[1' + "0" * 400 + ', 0]]}',
    "nested-entry": '{"n": 1, "entries": [[[1], 0]]}',
    "plus-sign": '{"n": 1, "entries": [[+1, 0]]}',
    "empty-slot": '{"n": 1, "entries": [[, 0]]}',
    "two-numbers-in-slot": '{"n": 1, "entries": [[1 2, 0]]}',
    # an empty slot next to a number outside the pairs: without brackets the
    # numbers would line up as a valid flat array
    "number-after-pair": '{"n": 2, "entries": [[1, ] 5, [0, 0], [0, 0], [1, 0]]}',
    "number-before-pair": '{"n": 2, "entries": [[1, 0], 5 [, 0], [0, 0], [1, 0]]}',
    "number-before-first-pair": '{"n": 1, "entries": [5 [, 0]]}',
    "number-after-last-pair": '{"n": 1, "entries": [[1, ] 5]}',
    "number-joined-across-bracket": '{"n": 1, "entries": [[1, 2]3]}',
    # a join comma after the last pair, none between two pairs, or two: a piece ends before a
    # join comma, so these leave an empty piece, or a piece that does not start "[" or end "]"
    "trailing-join-comma": '{"n": 1, "entries": [[1, 0],]}',
    "trailing-join-comma-spaced": '{"n": 1, "entries": [[1, 0], ]}',
    "n2-trailing-join-comma": '{"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0],]}',
    "missing-join-comma": '{"n": 2, "entries": [[1, 0] [0, 0], [0, 0], [1, 0]]}',
    "doubled-join-comma": '{"n": 2, "entries": [[1, 0],, [0, 0], [0, 0], [1, 0]]}',
}
# n is refused by the checks the two routes share, before any entries array is parsed
_N_REFUSED = {"n-zero", "n-leading-zero", "n-float", "n-negative", "n-string"}


# B declares A's n, so that the flat route gets past the comparison of the sizes; a B of
# 10**9 rows cannot be written, so that kind's B holds one pair and its own array is refused
_B_OF_N = {
    "1": _B,
    "2": '{"n": 2, "entries": [[0, 0], [0, 0], [0, 0], [0, 0]]}',
    "1000000000": '{"n": 1000000000, "entries": [[0, 0]]}',
}


def _check_near_canonical(tmp_path, kind, on_b):
    """At every piece size, a load of the kind's pair file ends as on the json route, orjson
    parses flat arrays only, and _flat_matrix parses B's entries first and refuses A's, with or
    without on_b."""
    a_text = _NEAR_CANONICAL[kind]
    b_text = _B_OF_N.get(re.match(r'\{"n": ([^,]*),', a_text)[1], _B)  # a refused n: any B
    path = tmp_path / "pair.json"
    path.write_text(f'{{"A": {a_text}, "B": {b_text}}}')
    slow = _json_route_outcome(path)
    for mp in _at_each_piece_size():
        calls, loaded = [], []
        _spy(mp, "_flat_matrix", calls)
        _spy_orjson(mp, loaded)
        got = _load_outcome(path, on_b)
        assert _same_outcome(got, slow)
        assert all(map(_one_flat_array, loaded))
        flat = [matrix is not None for _, matrix in calls]
        if kind in _N_REFUSED:
            assert flat == []
        elif kind == "n-10-digits":
            assert flat == [False]
        else:
            assert flat == [True, False]


@pytest.mark.parametrize("kind", list(_NEAR_CANONICAL))
def test_near_canonical_object_leaves_flat_tier(tmp_path, kind):
    _check_near_canonical(tmp_path, kind, None)


@pytest.mark.parametrize("kind", list(_NEAR_CANONICAL))
def test_near_canonical_object_leaves_flat_tier_after_b_with_on_b(tmp_path, kind):
    _check_near_canonical(tmp_path, kind, lambda b: None)


@pytest.mark.parametrize("hooked", [False, True], ids=["without-on_b", "with-on_b"])
def test_flat_layout_with_differing_sizes_parses_no_entries(tmp_path, hooked):
    # the short text shows the declared sizes differ: no entries array is parsed, no hook is
    # called, and the json route reports the error
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"A": {"n": 1, "entries": [[1, 0]]},
                                "B": {"n": 2, "entries": [[0, 0]] * 4}}))
    calls, hook_calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "_flat_matrix", calls)
        got = _load_outcome(path, hook_calls.append if hooked else None)
    assert calls == [] and hook_calls == []
    assert got == _json_route_outcome(path) == f"{path}: A is 1x1 but B is 2x2"


def _pair_text(a, b, layout):
    docs = {"A": matrix_to_doc(a), "B": matrix_to_doc(b)}
    if layout == "entries-first":
        docs = {key: {"entries": doc["entries"], "n": doc["n"]} for key, doc in docs.items()}
    elif layout == "B-first":
        docs = {"B": docs["B"], "A": docs["A"]}
    if layout == "compact":
        return json.dumps(docs, separators=(",", ":"))
    return json.dumps(docs, indent=2 if layout == "indent-2" else None)


@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("layout", ["compact", "indent-2", "entries-first", "B-first"])
def test_flat_route_parses_b_before_a_with_or_without_hook(tmp_path, layout, n):
    rng = np.random.default_rng([29, n])
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    path = tmp_path / "pair.json"
    path.write_text(_pair_text(a, b, layout))
    hook_calls = []
    for on_b in (None, hook_calls.append):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _spy(mp, "_flat_matrix", calls)
            got_a, got_b = load_pair(str(path), on_b)
        assert (got_a.tobytes(), got_b.tobytes()) == (a.tobytes(), b.tobytes())
        assert [matrix.tobytes() for _, matrix in calls] == [b.tobytes(), a.tobytes()]
    # the hooked load calls on_b once, with the B it returns
    assert len(hook_calls) == 1 and hook_calls[0] is got_b


# files with repeated keys, extra keys, or brackets and braces outside the two
# entries arrays: whether the flat route takes each (True) or the json route
# does, and either way the file loads, or fails, as on the json route
_A = '{"n": 1, "entries": [[1, 0]]}'


def _with_a(members):
    """A pair file whose A object holds the given members."""
    return f'{{"A": {{{members}}}, "B": {_B}}}'


_CUT = {
    # json keeps the last value of a key
    "n-twice": (True, _with_a('"n": 1, "entries": [[1, 0]], "n": 1')),
    "extra-key": (True, _with_a('"n": 1, "entries": [[1, 0]], "x": 0')),
    "entries-then-literal": (False, _with_a('"n": 1, "entries": [[1, 0]], "entries": 5')),
    "literal-then-entries": (True, _with_a('"n": 1, "entries": 5, "entries": [[1, 0]]')),
    "A-again-with-array": (
        False, f'{{"A": {_A}, "B": {_B}, "A": {{"n": 1, "entries": [[2, 0]]}}}}'),
    "A-again-without-array": (False, f'{{"A": {_A}, "B": {_B}, "A": {{"n": 1}}}}'),
    "B-number-then-matrix": (True, f'{{"A": {_A}, "B": 5, "B": {_B}}}'),
    # brackets and braces inside strings, outside the arrays
    "open-bracket-in-string": (False, _with_a('"x": "[", "n": 1, "entries": [[1, 0]]')),
    "close-bracket-in-string-before": (True, _with_a('"x": "]", "n": 1, "entries": [[1, 0]]')),
    "close-bracket-in-string-after": (False, _with_a('"n": 1, "entries": [[1, 0]], "x": "]"')),
    "brackets-in-top-level-string": (False, f'{{"x": "[0]", "A": {_A}, "B": {_B}}}'),
    "brace-in-string-after": (True, _with_a('"n": 1, "entries": [[1, 0]], "x": "}"')),
    "object-holding-array": (False, _with_a('"n": 1, "x": {"y": [2]}, "entries": [[1, 0]]')),
    "byte-order-mark": (False, f'\ufeff{{"A": {_A}, "B": {_B}}}'),
}


@pytest.mark.parametrize("kind", list(_CUT))
def test_cut_pair_file_loads_as_on_json_route(tmp_path, kind):
    flat, text = _CUT[kind]
    path = tmp_path / "pair.json"
    path.write_text(text, encoding="utf-8")
    calls, loaded = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixio, "_parse_text", lambda *args: calls.append(args) or _parse_text(*args))
        _spy_orjson(mp, loaded)
        got = _load_outcome(path)
    assert (not calls) == flat
    assert _same_outcome(got, _json_route_outcome(path))
    assert all(map(_one_flat_array, loaded))


def test_load_pair_takes_flat_tier(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text('\r\n {"B": {"n": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]},\r\n'
                    '"A": {"entries": [[1.5, -0.0], [2, 0],\n [0, 0], [-1e-320, 3]], "n": 2}}\n')
    expected = np.array([[complex(1.5, -0.0), 2], [0, complex(-1e-320, 3)]])
    for mp in _at_each_piece_size():
        calls = []
        for name in ("matrix_from_doc", "_parse_text"):
            _spy(mp, name, calls)
        a, b = load_pair(str(path))
        assert not calls, calls
        assert a.tobytes() == expected.tobytes()
        assert b.tobytes() == np.array([[0, 1], [1, 0]], dtype=complex).tobytes()


def test_encoders_match_per_entry_reference():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.1, -2.5, 3.0]
    rng = np.random.default_rng(0)
    m = np.array(rng.choice(values, 16) + 1j * rng.choice(values, 16)).reshape(4, 4)
    m[0, 0] = complex(-0.0, -0.0)
    vec = m.reshape(-1)
    real = vec.real

    def text(doc):
        return dumps_doc(doc).encode()

    assert text(matrix_to_doc(m)) == text(
        {"n": 4, "entries": [[float(z.real), float(z.imag)] for z in vec]}
    )
    assert text(complex_vector_to_doc(vec)) == text([[float(z.real), float(z.imag)] for z in vec])
    assert text(real_vector_to_doc(real)) == text([float(x) for x in real])
    assert all(type(x) is float for x in real_vector_to_doc(real))
    assert all(type(x) is float for pair in matrix_to_doc(m)["entries"] for x in pair)
    assert b"-0.0" in text(matrix_to_doc(m))


def test_load_pair(tmp_path):
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


def test_load_pair_entries_not_an_array(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"A": {"n": 2, "entries": 5},
                             "B": {"n": 2, "entries": [[0, 0]] * 4}}))
    # one entries array in the file: the flat route parses none, and the json route names the defect
    calls = []
    message = f"{f}: A: 'entries' must be an array"
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "_flat_matrix", calls)
        with pytest.raises(MatrixFileError, match=f"^{re.escape(message)}$"):
            load_pair(str(f))
    assert not calls, calls


def test_load_pair_top_level_not_an_object(tmp_path):
    f = tmp_path / "p.json"
    f.write_text("[]")
    message = f"{f}: expected an object at top level"
    with pytest.raises(MatrixFileError, match=f"^{re.escape(message)}$"):
        load_pair(str(f))


def test_load_reports_json_position(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"A": {"n": 2, ')
    with pytest.raises(MatrixFileError, match="line 1, column"):
        load_pair(str(f))


def test_load_missing_file():
    with pytest.raises(MatrixFileError):
        load_pair("/nonexistent/nowhere.json")


def test_dumps_doc_deterministic():
    doc = {"b": 1, "a": [1.5, 2.25]}
    s1 = dumps_doc(doc)
    s2 = dumps_doc({"a": [1.5, 2.25], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _outcome(write, doc):
    """The text write returns for doc, or the type and message of what it raises."""
    try:
        return write(doc)
    except Exception as exc:  # the outcomes are compared, whatever they are
        return type(exc), str(exc)


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every double, NaN and infinity included, with the spots where orjson's
# layout of a float differs from repr's drawn on their own
DUMP_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),
    st.builds(float.__mul__, st.floats(1e-5, 1e-4), st.sampled_from([1.0, -1.0])),
    st.builds(float.__mul__, st.floats(1e16, allow_infinity=False), st.sampled_from([1.0, -1.0])),
    st.builds(float.__mul__, st.floats(0.0, 1e-300), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 9.999999999999999e-05, 1e-4,
                     1e16, 9999999999999998.0, 1.7976931348623157e308, 10.00001, -0.00001]),
)
DUMP_INTS = st.one_of(st.integers(), st.integers(2**63 - 2, 2**64 + 2),
                      st.integers(-(2**63) - 2, -(2**63) + 2),
                      st.integers(-(2**80), 2**80))
# control characters, DEL, quotes, backslashes, non-ASCII, lone surrogates,
# and the bytes of number tokens
DUMP_STRINGS = st.text(st.one_of(
    st.sampled_from('\x00\x01\x08\x0c\x1f\x7f"\\/\n\r\te0.-+,'),
    st.characters(max_codepoint=127),
    st.characters(blacklist_categories=()),
))
# None is left to the keys and to the fixed cases: any null sends the whole
# document to json, which would hide what the rest of it tests
DUMP_SCALARS = st.one_of(DUMP_FLOATS, DUMP_INTS, DUMP_STRINGS, st.booleans())
DUMP_KEYS = st.one_of(DUMP_STRINGS, st.sampled_from(["a", "b", "e5", "0.00001"]),
                      st.integers(-3, 3), st.sampled_from([1.5, True, None]))
DUMP_DOCS = st.recursive(
    DUMP_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text("abe0", max_size=3), inner, max_size=4),
        st.dictionaries(DUMP_KEYS, inner, max_size=3),
    ),
    max_leaves=16,
)


@PARITY
@given(DUMP_DOCS)
def test_dumps_doc_is_json_dumps(doc):
    assert _outcome(dumps_doc, doc) == _outcome(_json_text, doc)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(DUMP_FLOATS, max_size=32), st.sampled_from(["list", "dict", "top"]))
def test_dumps_doc_writes_floats_as_json_dumps(values, layout):
    doc = {"list": values, "dict": {f"k{i}": x for i, x in enumerate(values)},
           "top": values[0] if values else -1e-5}[layout]
    assert _outcome(dumps_doc, doc) == _outcome(_json_text, doc)


class _Backwards(list):
    # json iterates a list subclass through its own __iter__
    def __iter__(self):
        return reversed(self)


@dataclasses.dataclass
class _Point:
    x: float


def test_dumps_doc_refusals_and_fallbacks_match_json_dumps():
    cycle, nested = [], {}
    cycle.append(cycle)
    nested["x"] = nested
    deep = [1e-5]
    for _ in range(300):  # deeper than orjson writes, well within json's limit
        deep = [deep]
    docs = [float("nan"), {"a": [1.0, float("-inf")]}, cycle, nested, deep,
            {1: "a", "b": 2}, 10 ** 5000, np.float64(1e-5), {"s": "\x7f"}, {"\u00e9": 1.0},
            None, {"witness": None, "x": 1e-5}, {"witness": None, "x": [1.0, float("nan")]},
            ({"null": [None, 2.5e-5]},), {"s": "null", "v": [float("inf")]},
            _Backwards([1e-5, 2.0]), _Point(1.0), datetime.date(2016, 1, 1)]
    for doc in docs:
        assert _outcome(dumps_doc, doc) == _outcome(_json_text, doc)
    assert isinstance(_outcome(_json_text, deep), str)
    assert _outcome(dumps_doc, cycle) == (ValueError, "Circular reference detected")


@pytest.mark.parametrize("seed", range(20))
def test_verify_report_is_json_dumps(seed):
    doc = run_verification(cases=200, max_n=12, seed=seed).to_doc()
    assert dumps_doc(doc) == _json_text(doc)


def test_cli_reports_are_json_dumps(tmp_path, monkeypatch, capsys):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"A": matrix_to_doc(np.diag([0.0, 1.0])),
                             "B": matrix_to_doc(np.array([[1.0, 1j], [-1j, 3.0]]))}))
    # every document the CLI hands to dumps_doc, through write_doc too
    docs = []
    monkeypatch.setattr(matrixio, "dumps_doc", lambda doc: docs.append(doc) or dumps_doc(doc))
    # a tolerance this small fails on rounding: a report with a witness
    assert cli.main(["check-ec", str(f), "--tol", "1e-20", "--grid-n", "16"]) == 3
    assert cli.main(["check-ec", str(f)]) == 0
    assert cli.main(["fit-measure", str(f)]) == 0
    assert cli.main(["reduce", str(f), str(tmp_path / "reduced.json")]) == 0
    capsys.readouterr()
    assert docs[0]["witness"] is not None and docs[1]["witness"] is None
    assert "measure" in docs[2] and "W" in docs[3]
    for doc in docs:
        assert dumps_doc(doc) == _json_text(doc)


def test_passing_check_ec_report_is_written_by_orjson_alone(tmp_path, monkeypatch, capsys):
    # the null of a passing report's witness is None, not a NaN: json.dumps is not called
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"A": matrix_to_doc(np.diag([0.0, 1.0])),
                             "B": matrix_to_doc(np.array([[1.0, 1j], [-1j, 3.0]]))}))
    calls = []
    real_dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or real_dumps(*a, **k))
    assert cli.main(["check-ec", str(f)]) == 0
    assert calls == []
    out = capsys.readouterr().out
    assert json.loads(out)["witness"] is None
    assert out == real_dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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


def test_flat_route_copies_no_entries_array_whole(tmp_path):
    # beyond the bytes of the file and the two matrices, a load holds a few pieces of an
    # entries array at a time, not the 0.8 MB of one array at n = 128
    n = 128
    pair = random_rank_one_pair(np.random.default_rng([34, n]), n)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"A": matrix_to_doc(pair.A.mat), "B": matrix_to_doc(pair.B.mat)}))
    load_pair(str(path))  # orjson and numpy's caches warm
    tracemalloc.start()
    try:
        a, b = load_pair(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - path.stat().st_size - a.nbytes - b.nbytes <= 1 << 20
