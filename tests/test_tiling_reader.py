"""The sliced tiling reader: the same tilings as ``json.load`` plus
``tiling_from_json``, its tile cap, and what it holds in memory."""

import io
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab import reader
from tilelab.cli import main
from tilelab.errors import ArgumentError, ResourceError
from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.reader import read_tiling
from tilelab.substitution import (COLUMNS, build_Tn, tiling_from_json,
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
