"""The sliced tiling reader: the same tilings as ``json.load`` plus
``tiling_from_json``, its tile cap, and what it holds in memory."""

import io
import itertools
import json
import math
import operator
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab import reader
from tilelab.cli import main
from tilelab.errors import ArgumentError, ResourceError
from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.reader import read_tiling
from tilelab.substitution import (COLUMNS, TYPECODES, build_Tn, tiling_from_json,
                                  tiling_json_chunks)


def _text(shape, n):
    return "".join(tiling_json_chunks(build_Tn(shape, n)))


_RATIONAL = _text(shape_from_pq(1, 2), 3)
_IRRATIONAL = _text(shape_from_theta(1.0), 6)


def _compact(text):
    """``json.dumps`` text with no indent, as the CLI tests write it."""
    return json.dumps(json.loads(text))


def _shuffled(text):
    """Every object's keys in another order, ``"tiles"`` first."""
    rng = random.Random(7)

    def shuffle(node):
        if isinstance(node, dict):
            items = [(k, shuffle(v)) for k, v in node.items()]
            rng.shuffle(items)
            items.sort(key=lambda kv: kv[0] != "tiles")
            return dict(items)
        if isinstance(node, list):
            return [shuffle(v) for v in node]
        return node

    return json.dumps(shuffle(json.loads(text)), indent=1)


def _escaped_keys(text):
    """``"tiles"`` and ``"format"`` spelt with escapes."""
    return text.replace('"tiles":', '"\\u0074iles":', 1) \
        .replace('"format":', '"for\\u006dat":', 1)


def _tricky_extra_keys(text):
    """Every tile with extra keys whose text holds ``},`` inside strings and
    nested values."""
    data = json.loads(text)
    for k, tile in enumerate(data["tiles"]):
        tile["note"] = '},{"a": 1},' * (k % 3)
        tile["nested"] = {"x": {"y": [1, {"z": "},"}], "w": "}, {"}, "v": [{}, {}]}
    return json.dumps(data)


def _duplicate_tiles(text):
    """A bad ``"tiles"`` list and a non-list ``"tiles"`` before the real one,
    which is the last and so the one that counts."""
    body = text.lstrip()[1:]
    return '{"tiles": [{"id": "x"}, 1], "tiles": 5, "tiles": [{},' + \
        '{"a": "},"}],' + body


_VARIANTS = {
    "writer": lambda text: text,
    "compact": _compact,
    "indent1": lambda text: json.dumps(json.loads(text), indent=1),
    "shuffled": _shuffled,
    "escaped-keys": _escaped_keys,
    "tricky-extra-keys": _tricky_extra_keys,
    "duplicate-tiles": _duplicate_tiles,
}


def _assert_same(got, want):
    assert got.shape == want.shape and got.generation == want.generation
    for name, dtype in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("slice_chars", [1, 2, 3, 5, 16, 97, 1 << 18])
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("source", [_RATIONAL, _IRRATIONAL], ids=["1/2", "theta"])
def test_reader_matches_json_load(monkeypatch, source, variant, slice_chars):
    text = _VARIANTS[variant](source)
    want = tiling_from_json(json.loads(text))
    monkeypatch.setattr(reader, "JSON_READ_CHARS", slice_chars)
    _assert_same(read_tiling(io.StringIO(text)), want)


def test_reader_refuses_documents_with_the_message_of_tiling_from_json(monkeypatch):
    monkeypatch.setattr(reader, "JSON_READ_CHARS", 4)
    header = {k: v for k, v in json.loads(_RATIONAL).items() if k != "tiles"}
    docs = [{**header, "tiles": tiles} for tiles in
            ([1, 2], [], 7, [{"a": 1}], [{"id": 1}] * 3)]
    docs += [{"tiles": [1]}, {"format": 1, "tiles": [{}]}, {},
             {k: v for k, v in header.items() if k != "shape"}]
    texts = [json.dumps(doc) for doc in docs]
    # the last "tiles" key counts, a bad one before it does not
    texts.append(_RATIONAL.rstrip()[:-1] + ', "tiles": [{"id": 1}]}')
    for text in texts:
        with pytest.raises(ArgumentError) as want:
            tiling_from_json(json.loads(text))
        with pytest.raises(ArgumentError) as got:
            read_tiling(io.StringIO(text))
        assert str(got.value) == str(want.value), text
    with pytest.raises(ArgumentError, match="'tiles' must be a non-empty list"):
        read_tiling(io.StringIO(texts[1]))


def _paths(node, prefix=()):
    """Every key or index path into a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
                     st.floats(), st.text(max_size=3))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.sampled_from(["p", "q", "x"]), _SCALARS,
                                    max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_paths(json.loads(_RATIONAL)), key=repr)), _VALUES,
       st.sampled_from([None, 1]), st.sampled_from([1, 3, 16, 1 << 18]))
@example(("tiles", 3, "phi"), True, None, 1)        # a bool beside floats
@example(("tiles", 2, "origin", 0), True, 1, 1 << 18)
# a number cut after "0." or before its exponent's digits is read on
@example(("generation",), 0.0, None, 1)
@example(("format",), -0.0, None, 3)
@example(("generation",), 1.3510798882109852e+16, 1, 1)
def test_reader_agrees_with_tiling_from_json(path, value, indent, slice_chars):
    data = json.loads(_RATIONAL)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(data, indent=indent)
    try:
        want = tiling_from_json(json.loads(text))
    except Exception as exc:     # the same kind of refusal is wanted
        want = type(exc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reader, "JSON_READ_CHARS", slice_chars)
        try:
            got = read_tiling(io.StringIO(text))
        except Exception as exc:
            got = type(exc)
    if isinstance(want, type):
        assert got is want, (path, value)
    else:
        _assert_same(got, want)


@pytest.mark.parametrize("field,value", [("phi", True), ("origin", [True, 0.5]),
                                         ("origin", [0.5, False])])
def test_a_bool_is_no_coordinate(field, value):
    # numpy would read it as 1.0 or 0.0 beside the other tiles' floats
    data = json.loads(_RATIONAL)
    data["tiles"][3][field] = value
    text = json.dumps(data)
    with pytest.raises(ArgumentError, match=f"tile '{field}' values must be finite"):
        tiling_from_json(json.loads(text))
    with pytest.raises(ArgumentError, match=f"tile '{field}' values must be finite"):
        read_tiling(io.StringIO(text))


def test_a_read_tiling_views_its_buffers_when_first_read():
    tiling = read_tiling(io.StringIO(_RATIONAL))
    assert len(tiling) == len(json.loads(_RATIONAL)["tiles"])
    assert not {name for name, _ in COLUMNS} & set(vars(tiling))
    phi = tiling.phi
    assert tiling.phi is phi and not phi.flags.writeable
    assert np.shares_memory(phi, np.frombuffer(tiling._columns["phi"]))
    with pytest.raises(AttributeError, match="no attribute 'psi'"):
        tiling.psi


# -- the column checks against the numpy ones they replace -------------------


def _ref_int_column(values, key, dtype, low=0, high=None):
    if high is None:
        high = np.iinfo(dtype).max
    col = None
    if set(map(type, values)) == {int}:
        try:
            col = np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    if col is None or col.min() < low or col.max() > high:
        raise ArgumentError(f"tile {key!r} values must be integers in "
                            f"[{low}, {high}]")
    return col.astype(dtype)


def _ref_float_column(values, key, shape):
    try:
        col = np.array(values)
    except ValueError:
        col = None
    flat = itertools.chain.from_iterable(values) if len(shape) > 1 else values
    if col is None or col.shape != shape or col.dtype.kind not in "if" \
            or bool in set(map(type, flat)) or not np.isfinite(col).all():
        raise ArgumentError(f"tile {key!r} values must be finite numbers, "
                            f"{'x, y pairs' if len(shape) > 1 else 'one each'}")
    return col.astype(np.float64)


def _ref_tile_columns(rows):
    """The reader's checks as numpy made them: a slice's values through
    ``np.array``, then dtype, shape, range and finiteness."""
    keys = reader._TILE_KEYS
    try:
        values = dict(zip(keys, zip(*map(operator.itemgetter(*keys), rows))))
    except (KeyError, TypeError):
        raise ArgumentError("every tile must be an object with the keys "
                            + ", ".join(keys)) from None
    hand = _ref_int_column(values["handedness"], "handedness", np.int8, -1, 1)
    if not hand.all():
        raise ArgumentError("tile 'handedness' values must be 1 or -1")
    parents = values["parent"]
    roots = [k for k, p in enumerate(parents) if p is None] if None in parents else []
    parent = _ref_int_column([0 if p is None else p for p in parents] if roots else parents,
                             "parent", np.int64)
    parent[roots] = -1
    origin = _ref_float_column(values["origin"], "origin", (len(rows), 2))
    phi = _ref_float_column(values["phi"], "phi", (len(rows),))
    if not ((phi >= 0.0) & (phi <= reader.PHI_MAX)).all():
        raise ArgumentError(f"tile 'phi' values must be headings in [0, {reader.PHI_MAX}]")
    return {"handedness": hand, "phi": phi, "ox": origin[:, 0], "oy": origin[:, 1],
            "i": _ref_int_column(values["i"], "i", np.int32),
            "j": _ref_int_column(values["j"], "j", np.int32),
            "ids": _ref_int_column(values["id"], "id", np.int64), "parent": parent}


_BIG = [s * 2 ** e + d for s in (1, -1) for e in (31, 63, 64) for d in (-1, 0, 1)]
_NUMBERS = st.one_of(
    st.sampled_from(_BIG + [0, 1, -1, 7, 0.5, -0.0, math.nan, math.inf, -math.inf,
                            1e308, -1e308, 5e-324, 6.283185307180]),
    st.integers(-2 ** 70, 2 ** 70), st.floats(), st.floats(0.0, 7.0))
_NUMPY_SCALARS = st.builds(
    lambda make, value: make(value),
    st.sampled_from([np.float16, np.float32, np.float64, np.int8, np.int64,
                     np.uint8, np.uint64, np.bool_, np.array]),
    st.integers(0, 100) | st.floats(0.0, 7.0))
_SCALARS = st.one_of(_NUMBERS, _NUMPY_SCALARS, st.booleans(), st.none(),
                     st.text(max_size=2))
# headings and coordinates that are mostly taken
_FLOATS = st.one_of(st.floats(0.0, 7.0), _NUMPY_SCALARS, _SCALARS)
_ORIGINS = st.one_of(
    st.lists(_FLOATS, min_size=2, max_size=2), st.tuples(_FLOATS, _FLOATS),
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from("xy"), _SCALARS, max_size=2), _SCALARS,
    st.builds(lambda x, y, dtype: np.array([x, y], dtype=dtype),
              st.floats(0.0, 7.0), st.floats(0.0, 7.0),
              st.sampled_from(["float64", "float32", "int64", "uint64", "bool", "object"])))


@st.composite
def _slices(draw):
    """A few tiles of a valid tiling with keys changed, dropped or added,
    in one tile or all of them, and now and then a tile that is no object."""
    base = json.loads(_RATIONAL)["tiles"]
    rows = [dict(tile) for tile in draw(st.lists(st.sampled_from(base), min_size=1,
                                                 max_size=4))]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(reader._TILE_KEYS + ("extra",) + ("origin", "phi") * 3))
        drop = draw(st.integers(0, 9)) == 0
        value = draw({"origin": _ORIGINS, "phi": _FLOATS}.get(key, _SCALARS))
        for row in rows if draw(st.booleans()) else [draw(st.sampled_from(rows))]:
            if drop:
                row.pop(key, None)
            else:
                row[key] = value
    if draw(st.integers(0, 19)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(_SCALARS)
    return rows


def _origins(*pairs):
    """Three tiles of the rational tiling with these origins."""
    rows = [dict(tile) for tile in json.loads(_RATIONAL)["tiles"][:3]]
    for row, pair in zip(rows, pairs):
        row["origin"] = pair
    return rows


@settings(max_examples=1500, deadline=None)
@given(_slices())
# numpy's inference: an int past int64 that fits uint64 is a float beside
# a signed int or a float, and unsigned alone; one past uint64 is an object
@example(_origins([2 ** 63, 1], [0.5, 0.5], [0.5, 0.5]))
@example(_origins([0.5, 2 ** 63], [0.5, 0.5], [0.5, 0.5]))
@example(_origins([0.5, 2 ** 70], [0.5, 0.5], [0.5, 0.5]))
@example(_origins([2 ** 63, 2 ** 63], [2 ** 64 - 1, 2 ** 63], [2 ** 63, 2 ** 63]))
@example(_origins([np.uint64(1), np.uint8(2)], [np.uint64(3), 2 ** 63], [np.uint8(1), 2 ** 64 - 1]))
@example(_origins([np.bool_(True), 0.5], (1, 2), np.array([1.5, 2.5], dtype="float32")))
@example(_origins([-0.0, 1e308], [2 ** 63, -1], [-2 ** 63, 2 ** 63 - 1]))
def test_column_checks_match_numpys(rows):
    # each slice is taken with the same bits or refused with the same error
    try:
        want = _ref_tile_columns(rows)
    except Exception as exc:
        want = (type(exc), str(exc))
    header = {k: v for k, v in json.loads(_RATIONAL).items() if k != "tiles"}
    for columns in (lambda: reader._tile_columns(rows),
                    lambda: tiling_from_json({**header, "tiles": rows})._columns):
        try:
            got = columns()
        except Exception as exc:
            got = (type(exc), str(exc))
        if isinstance(want, tuple):
            assert got == want
            continue
        assert not isinstance(got, tuple), got
        for name, dtype in COLUMNS:
            col = got[name]
            assert (col.typecode, len(col)) == (TYPECODES[dtype], len(want[name])), name
            assert col.tobytes() == want[name].tobytes(), name


@settings(max_examples=1500, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=4), st.lists(_ORIGINS, min_size=1, max_size=4))
def test_float_columns_match_numpys(headings, origins):
    for values, shape in ((headings, (len(headings),)), (origins, (len(origins), 2))):
        try:
            want = _ref_float_column(tuple(values), "x", shape).tobytes()
        except ArgumentError as exc:
            want = str(exc)
        try:
            got = reader._float_column(tuple(values), "x", len(shape) > 1).tobytes()
        except ArgumentError as exc:
            got = str(exc)
        assert got == want, values


@pytest.mark.parametrize("text", [
    "", "  ", '{"tiles": [{}],}', '{"tiles": [{},]}', '{"tiles": [{},,{}]}',
    '{"tiles": [{}] "x": 1}', '{"tiles": [{}]} {}', '{"a" 1}', "{1: 2}",
    '{"tiles": [{"a": "},"}, {"b"}]}', "\ufeff{}",
], ids=repr)
def test_reader_refuses_what_json_refuses(monkeypatch, text):
    with pytest.raises(ValueError):
        json.loads(text)
    for chars in (1, 3, 1 << 18):
        monkeypatch.setattr(reader, "JSON_READ_CHARS", chars)
        with pytest.raises(ValueError) as exc:
            read_tiling(io.StringIO(text))
        assert not isinstance(exc.value, ArgumentError), text


def test_truncated_files_exit_2(tmp_path, capsys, monkeypatch):
    text = _text(shape_from_pq(1, 2), 1)
    path = tmp_path / "cut.json"
    for chars in (3, 1 << 18):
        monkeypatch.setattr(reader, "JSON_READ_CHARS", chars)
        for end in range(len(text.rstrip())):
            path.write_text(text[:end])
            rc = main(["stats", "--in", str(path)])
            out, err = capsys.readouterr()
            assert rc == 2 and out == "", end
            assert err.startswith("error: ") and err.count("\n") == 1, end


@pytest.mark.parametrize("where", ["header", "tiles"])
def test_json_nested_too_deep_exits_2(tmp_path, capsys, where):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(f'{{"{where}": [{deep}]}}')
    rc = main(["stats", "--in", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reader_counts_tiles_before_it_builds_columns(monkeypatch):
    built = []
    columns = reader._tile_columns
    monkeypatch.setattr(reader, "_tile_columns",
                        lambda rows: built.append(len(rows)) or columns(rows))
    tiles = len(json.loads(_RATIONAL)["tiles"])
    for chars in (1, 1 << 18):
        monkeypatch.setattr(reader, "JSON_READ_CHARS", chars)
        built.clear()
        with pytest.raises(ResourceError, match="more tiles than the cap of 2"):
            read_tiling(io.StringIO(_RATIONAL), cap=2)
        assert sum(built) <= 2
        assert len(read_tiling(io.StringIO(_RATIONAL), cap=tiles)) == tiles


@pytest.mark.parametrize("slice_chars", [1, 16, 97, 1 << 18])
def test_a_bad_tile_in_the_middle_drops_the_columns(monkeypatch, slice_chars):
    data = json.loads(_RATIONAL)
    middle = len(data["tiles"]) // 2
    data["tiles"][middle]["i"] = -1
    text = json.dumps(data, indent=1)
    with pytest.raises(ArgumentError) as want:
        tiling_from_json(json.loads(text))
    monkeypatch.setattr(reader, "JSON_READ_CHARS", slice_chars)
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        read_tiling(io.StringIO(text))
    # what was gathered before the bad tile is dropped, and nothing after
    # it is gathered
    tiles = reader._TileColumns()
    for part in (data["tiles"][:middle], data["tiles"][middle:], data["tiles"][:3]):
        tiles.add(part)
    assert tiles.buffers is None and tiles.count == len(data["tiles"]) + 3
    with pytest.raises(ArgumentError, match=re.escape(str(want.value))):
        tiles.columns()


# -- memory ------------------------------------------------------------------
#
# tracemalloc counts every allocation made through Python, numpy arrays
# included, and gives the same peak on every run.


@pytest.fixture(scope="module")
def t9_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("t9") / "t9.json"
    with open(path, "w") as fh:
        fh.writelines(tiling_json_chunks(build_Tn(shape_from_pq(1, 2), 9)))
    return path


def test_a_number_cut_at_a_slice_end_is_read_whole(t9_file, tmp_path, capsys):
    # a valid file whose last key's value "0.25" is cut after "0." where a
    # slice of the default size ends: it was refused with "Expecting ','
    # delimiter at character 1310719" (the fifth 256 KiB slice)
    head = t9_file.read_text().rstrip()[:-1]
    cut = -(-(len(head) + 10) // reader.JSON_READ_CHARS) * reader.JSON_READ_CHARS
    text = head + " " * (cut - len(head) - 10) + ', "zz": 0.25}\n'
    assert text.rindex("0.25") + 2 == cut
    path = tmp_path / "extra.json"
    path.write_text(text)
    with open(path) as fh:
        _assert_same(read_tiling(fh), tiling_from_json(json.loads(text)))
    assert main(["stats", "--in", str(path)]) == 0
    capsys.readouterr()


def test_reader_holds_a_slice_not_the_document(t9_file):
    # p/q = 1/2 T_9: 7,589 tiles, 1.28 MB of text, 371,861 bytes of columns.
    # The peak was 13.6 times the columns when the whole document was
    # parsed at once, and is 7.8 times (mostly one 256 KiB slice and its
    # tile objects) when it is read in slices
    tracemalloc.start()
    try:
        with open(t9_file) as fh:
            tiling = read_tiling(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(tiling, name).nbytes for name, _ in COLUMNS)
    assert peak < 10 * columns


def test_reader_gathers_no_second_copy_of_the_columns(monkeypatch, t9_file):
    # with slices of 4 KiB, what is held besides the columns is small: the
    # traced peak was 2.2 times the columns when every slice kept its own
    # column pieces until one join at the end, and is 1.2 times with one
    # growable buffer per column
    monkeypatch.setattr(reader, "JSON_READ_CHARS", 1 << 12)
    tracemalloc.start()
    try:
        with open(t9_file) as fh:
            tiling = read_tiling(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(tiling, name).nbytes for name, _ in COLUMNS)
    assert peak < 1.5 * columns
