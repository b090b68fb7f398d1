"""Reading tiling JSON: the checks of a ``tilelab-tiling/1`` document,
and a reader that parses the file a slice at a time.

The commands that read no tiling never import this module.
"""

from __future__ import annotations

import array
import itertools
import json
import math
import operator
from fractions import Fraction

from .errors import ArgumentError, ResourceError
from .geometry import TWO_PI, TriangleShape, shape_from_pq, shape_from_theta
from .substitution import COLUMNS, DEFAULT_TILE_CAP, TILING_FORMAT, Tiling

# Characters per slice of tiling JSON text: the reader holds one slice and
# its tile objects at a time (more only while one tile or header value
# does not fit).
JSON_READ_CHARS = 1 << 16

# The largest heading a tiling JSON file may hold: 12-digit text rounds
# headings just below 2pi up to this, which is above 2pi.
PHI_MAX = float(f"{TWO_PI:.12g}")

_TILE_KEYS = ("handedness", "i", "id", "j", "origin", "parent", "phi")


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _shape_from_json(sh) -> TriangleShape:
    if not isinstance(sh, dict) or not (_is_number(sh.get("theta"))
                                        and _is_number(sh.get("c"))):
        raise ArgumentError("tiling shape must be an object with numeric "
                            "theta and c")
    rationality = None
    rat = sh.get("rationality")
    if rat:
        p, q = (rat.get("p"), rat.get("q")) if isinstance(rat, dict) else (None, None)
        if not all(type(v) is int and v > 0 for v in (p, q)):
            raise ArgumentError("tiling shape rationality must hold positive "
                                "integers p and q")
        rationality = Fraction(p, q)
        # the tolerance of classify --theta-pi; 12-digit headers of valid
        # files are far closer
        want = shape_from_pq(rationality.numerator, rationality.denominator).theta
        if abs(sh["theta"] - want) > 1e-9:
            raise ArgumentError(f"tiling shape theta {sh['theta']!r} is not the "
                                f"p/q = {p}/{q} angle {want!r}")
    return shape_from_theta(sh["theta"], sh["c"], rationality=rationality)


def _int_column(values: list, key: str, dtype, low: int = 0,
                high: int | None = None) -> np.ndarray:
    import numpy as np
    if high is None:
        high = np.iinfo(dtype).max
    col = None
    if set(map(type, values)) == {int}:     # no floats, bools or None
        try:
            col = np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    if col is None or col.min() < low or col.max() > high:
        raise ArgumentError(f"tile {key!r} values must be integers in "
                            f"[{low}, {high}]")
    return col.astype(dtype)


def _float_column(values: list, key: str, shape: tuple) -> np.ndarray:
    import numpy as np
    try:
        col = np.array(values)
    except ValueError:      # ragged nested lists
        col = None
    # numpy reads true as 1.0 beside a float: bools are refused by type, so
    # that no value is taken or refused for the tiles read with it
    flat = itertools.chain.from_iterable(values) if len(shape) > 1 else values
    if col is None or col.shape != shape or col.dtype.kind not in "if" \
            or bool in set(map(type, flat)) or not np.isfinite(col).all():
        raise ArgumentError(f"tile {key!r} values must be finite numbers, "
                            f"{'x, y pairs' if len(shape) > 1 else 'one each'}")
    return col.astype(np.float64)


def _tile_columns(rows: list) -> dict:
    """The columns of a list of parsed tile objects, each value checked."""
    import numpy as np
    try:
        values = dict(zip(_TILE_KEYS, zip(*map(operator.itemgetter(*_TILE_KEYS), rows))))
    except (KeyError, TypeError):
        raise ArgumentError("every tile must be an object with the keys "
                            + ", ".join(_TILE_KEYS)) from None
    hand = _int_column(values["handedness"], "handedness", np.int8, -1, 1)
    if not hand.all():
        raise ArgumentError("tile 'handedness' values must be 1 or -1")
    parents = values["parent"]
    # only the root has no parent: most slices hold no None
    roots = [k for k, p in enumerate(parents) if p is None] if None in parents else []
    parent = _int_column([0 if p is None else p for p in parents] if roots else parents,
                         "parent", np.int64)
    parent[roots] = -1
    origin = _float_column(values["origin"], "origin", (len(rows), 2))
    phi = _float_column(values["phi"], "phi", (len(rows),))
    if not ((phi >= 0.0) & (phi <= PHI_MAX)).all():
        raise ArgumentError(f"tile 'phi' values must be headings in [0, {PHI_MAX}]")
    return {
        "handedness": hand,
        "phi": phi,
        "ox": origin[:, 0],
        "oy": origin[:, 1],
        "i": _int_column(values["i"], "i", np.int32),
        "j": _int_column(values["j"], "j", np.int32),
        "ids": _int_column(values["id"], "id", np.int64),
        "parent": parent,
    }


class _TileColumns:
    """The columns of one ``"tiles"`` list, built a piece of the list at a
    time into one growable typed buffer per column.  A bad tile is kept as
    the error to raise when the columns are asked for, since a later
    ``"tiles"`` key replaces the list (as in ``json``); past ``cap`` tiles
    (None: no cap) ``add`` raises :class:`ResourceError` before it builds
    any more columns."""

    def __init__(self, cap: int | None = None):
        import numpy as np
        self.cap = cap
        self.count = 0
        self.buffers = {name: array.array(np.dtype(dtype).char)
                        for name, dtype in COLUMNS}
        self.error: ArgumentError | None = None

    def add(self, rows: list) -> None:
        self.count += len(rows)
        if self.cap is not None and self.count > self.cap:
            raise ResourceError(f"tiling file has more tiles than the cap of "
                                f"{self.cap}")
        if rows and self.error is None:
            try:
                for name, col in _tile_columns(rows).items():
                    self.buffers[name].frombytes(col.tobytes())
            except ArgumentError as exc:
                self.error, self.buffers = exc, None

    def columns(self) -> dict:
        if self.error is not None:
            raise self.error
        if not self.count:
            raise ArgumentError("tiling JSON 'tiles' must be a non-empty list")
        return self.buffers


def _checked_tiling(data, tiles: _TileColumns | None) -> Tiling:
    """The tiling of a document whose ``"tiles"`` list is ``tiles`` (None
    when it is not a list), its header checked first."""
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != TILING_FORMAT:
        raise ArgumentError(f"unsupported tiling format: {fmt!r}")
    missing = [k for k in ("shape", "generation", "tiles") if k not in data]
    if missing:
        raise ArgumentError(f"tiling JSON lacks {', '.join(missing)}")
    shape = _shape_from_json(data["shape"])
    generation = data["generation"]
    if type(generation) is not int or generation < 0:
        raise ArgumentError("tiling generation must be a non-negative integer")
    if tiles is None:
        raise ArgumentError("tiling JSON 'tiles' must be a non-empty list")
    return Tiling(shape, generation, tiles.columns())


def document_tiling(data: dict) -> Tiling:
    """:func:`tilelab.substitution.tiling_from_json`: the tiling of a parsed
    document, through the checks of :func:`read_tiling`."""
    rows = data.get("tiles") if isinstance(data, dict) else None
    tiles = None
    if isinstance(rows, list):
        tiles = _TileColumns()
        tiles.add(rows)
    return _checked_tiling(data, tiles)


_JSON = json.JSONDecoder()
_NUMBER_CHARS = ".eE+-0123456789"


class _TextSlices:
    """JSON text read from a file a slice at a time: ``text[pos:]`` is
    what is not parsed yet, and ``base`` the file position of ``text[0]``."""

    def __init__(self, fh):
        self.fh = fh
        self.text = ""
        self.pos = 0
        self.base = 0
        self.eof = False

    def more(self) -> None:
        """Read the next piece, at least as long as the text not parsed yet,
        so that text which keeps failing to parse is read in doubling
        pieces."""
        rest = self.text[self.pos:]
        piece = self.fh.read(max(JSON_READ_CHARS, len(rest)))
        self.base += self.pos
        self.text, self.pos, self.eof = rest + piece, 0, not piece

    def peek(self) -> str:
        """The next character after whitespace, "" at the end of the file."""
        while True:
            self.pos = json.decoder.WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self.more()

    def error(self, msg: str, at: int = 0) -> ValueError:
        return ValueError(f"{msg} at character {self.base + self.pos + at}")

    def expect(self, char: str, msg: str) -> None:
        if self.peek() != char:
            raise self.error(msg)
        self.pos += 1

    def decode(self, scan):
        """The value of ``scan(text, pos) -> (value, end)``, reading on
        while it fails or ends where a number may go on: at the end of the
        text read so far, or before a number's character ("0." of "0.5")."""
        while True:
            try:
                value, end = scan(self.text, self.pos)
            except ValueError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos - self.pos) from None
            else:
                if self.eof or self.text[end:end + 1] not in _NUMBER_CHARS:
                    self.pos = end
                    return value
            self.more()

    def tiles(self, columns: _TileColumns) -> None:
        """Parse the list that opens at ``pos`` into ``columns``, a slice
        at a time.  A slice ends at a ``}`` that a ``,`` follows; when it
        parses as a list, the cut was between two elements of this one (a
        cut inside a string or a nested value leaves it unterminated).
        The last slice is the rest of the list."""
        self.pos += 1
        after_comma = False
        while True:
            cut = self.text.rfind("},", self.pos)
            if cut >= 0:
                try:
                    rows = json.loads("[" + self.text[self.pos:cut + 1] + "]")
                except ValueError:
                    pass
                else:
                    columns.add(rows)
                    self.pos, after_comma = cut + 2, True
                    continue
            try:
                rows, end = _JSON.raw_decode("[" + self.text[self.pos:])
            except ValueError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos - 1) from None
            else:
                if after_comma and not rows:
                    raise self.error("Expecting value")
                columns.add(rows)
                self.pos += end - 1
                return
            self.more()


def read_tiling(fh, cap: int | None = None) -> Tiling:
    """The tiling of the ``tilelab-tiling/1`` document in the text file
    ``fh``, read in slices of about :data:`JSON_READ_CHARS` characters.

    Besides the columns it holds one slice and its tile objects at a
    time, and it counts tiles as it goes: past ``cap`` tiles (default
    :data:`DEFAULT_TILE_CAP`) it raises :class:`ResourceError`.  Text
    that is not one JSON object raises ``ValueError``.  A document is
    read as ``json`` reads it (of a repeated key the last one counts),
    and one that :func:`tilelab.substitution.tiling_from_json` would
    refuse is refused with its :class:`ArgumentError`."""
    doc = _TextSlices(fh)
    doc.expect("{", "Expecting '{'")
    data = {}
    more = doc.peek() != "}"
    while more:
        if doc.peek() != '"':
            raise doc.error("Expecting property name enclosed in double quotes")
        key = doc.decode(lambda text, pos: json.decoder.scanstring(text, pos + 1))
        doc.expect(":", "Expecting ':' delimiter")
        if doc.peek() == "[" and key == "tiles":
            data[key] = _TileColumns(DEFAULT_TILE_CAP if cap is None else cap)
            doc.tiles(data[key])
        else:
            data[key] = doc.decode(_JSON.raw_decode)
        more = doc.peek() == ","
        if more:
            doc.pos += 1
    doc.expect("}", "Expecting ',' delimiter")
    if doc.peek():
        raise doc.error("Extra data")
    tiles = data.get("tiles")
    return _checked_tiling(data, tiles if isinstance(tiles, _TileColumns) else None)
