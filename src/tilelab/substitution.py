"""Five-daughter subdivision, largest-first deflation, and supertile growth.

``T_n`` denotes the tiling of the root triangle after ``n`` deflation
steps, where one step subdivides exactly the tiles of (shared) minimal
size parameter and leaves everything else alone.  An exact integer census
of exponent classes evolves alongside (or instead of) the geometric
tilings; the two agree tile-for-tile and the census scales to millions of
tiles at negligible cost.

A :class:`Tiling` keeps its tiles as numpy columns, one row per tile, and
deflation, serialization and the statistics work on whole columns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import sys
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .errors import ArgumentError, InternalError, ResourceError, as_count
from .geometry import (
    Placement,
    Similarity,
    Tile,
    TriangleShape,
    apply_columns,
    cos_sin,
    wrap_angles,
)

DEFAULT_TILE_CAP = 10_000_000

TILING_FORMAT = "tilelab-tiling/1"

# Tiles per piece of tiling JSON or SVG text, which writers hold one at a
# time, and items per batch of the column work that holds one batch.
# generate deflates T_n, and formats its floats, in batches of two pieces:
# batches of one piece made it 15 % slower on p/q = 1/2 T_13 and 22 % on
# theta = 1.0 T_60 (more deflations, and more floats formatted twice).
JSON_CHUNK_TILES = 1 << 11

# Distinct size keys closer than this are treated as a bookkeeping bug:
# on the lattice of any desk-scale shape genuinely different (i, j)
# classes are separated by far more.
NEAR_TIE = 1e-9

# The columns of a Tiling: handedness (+1/-1), heading, small-angle
# vertex, exponent pair, tile id and parent id (-1 for the root).  The
# dtypes are named, not numpy types: commands that build no array never
# load numpy.
COLUMNS = (("handedness", "int8"), ("phi", "float64"), ("ox", "float64"),
           ("oy", "float64"), ("i", "int32"), ("j", "int32"),
           ("ids", "int64"), ("parent", "int64"))


def _make_tile(shape, hand, phi, ox, oy, i, j, tile_id, parent) -> Tile:
    return Tile(shape=shape, placement=Placement(hand, phi, (ox, oy), (i, j)),
                id=tile_id, parent=None if parent < 0 else parent)


def subdivide(tile: Tile, first_id: int | None = None) -> list[Tile]:
    """The five daughters of ``tile``, ids assigned consecutively."""
    import numpy as np
    if first_id is None:
        first_id = tile.id + 1
    p = tile.placement
    one = _one_tile(tile.shape, p.handedness, p.phi, *p.origin, *p.size_exp, tile.id,
                    -1 if tile.parent is None else tile.parent)
    kids = _daughters(one, np.array([0]), first_id)
    return [_make_tile(tile.shape, *row) for row in Tiling(tile.shape, 0, kids).rows()]


def _one_tile(shape: TriangleShape, *row) -> Tiling:
    """The generation-0 tiling of the one tile whose values, in
    :data:`COLUMNS` order, are ``row``."""
    return Tiling(shape, 0, {name: [v] for (name, _), v in zip(COLUMNS, row)})


class Tiling:
    """An ordered collection of tiles covering one root triangle.

    The tiles are stored as read-only numpy columns named in
    :data:`COLUMNS`, one row per tile: ``handedness`` (int8), ``phi``,
    ``ox``, ``oy`` (float64), ``i``, ``j`` (int32), ``ids`` and
    ``parent`` (int64, -1 for the root).  The library reads only these
    columns; :attr:`tiles` is a sequence view for callers, which builds
    a :class:`Tile` object for each tile it hands out.
    """

    def __init__(self, shape: TriangleShape, generation: int, columns: dict):
        import numpy as np
        self.shape = shape
        self.generation = generation
        for name, dtype in COLUMNS:
            # a view: freezing it leaves the caller's own array writable
            col = np.asarray(columns[name], dtype=dtype).view()
            col.flags.writeable = False
            setattr(self, name, col)
        self._pairs = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def tiles(self) -> "_TileView":
        return _TileView(self)

    def rows(self):
        """The tiles as tuples of Python values in :data:`COLUMNS` order."""
        return zip(*(getattr(self, name).tolist() for name, _ in COLUMNS))

    # -- size classes -----------------------------------------------------

    def exponent_pairs(self) -> tuple[list[tuple[int, int]], np.ndarray, list[int]]:
        """The distinct exponent pairs in order of first appearance, each
        tile's index into that list, and the tile count of each pair, a
        chunk of JSON_CHUNK_TILES tiles at a time."""
        import numpy as np
        if self._pairs is None:
            chunks = [slice(lo, lo + JSON_CHUNK_TILES)
                      for lo in range(0, max(len(self), 1), JSON_CHUNK_TILES)]
            code = lambda part: self.i[part].astype(np.int64) * (1 << 32) + self.j[part]
            # chunks in tile order: the first of equal codes is the first tile
            seen = []
            for part in chunks:
                c, f = np.unique(code(part), return_index=True)
                seen.append((c, f + part.start))
            codes, firsts = map(np.concatenate, zip(*seen))
            distinct, at = np.unique(codes, return_index=True)
            order = np.argsort(firsts[at])
            remap = np.empty_like(order)
            remap[order] = np.arange(len(order))
            index = np.empty(len(self), dtype=remap.dtype)
            for part in chunks:
                index[part] = remap[np.searchsorted(distinct, code(part))]
            first = firsts[at[order]]
            pairs = list(zip(self.i[first].tolist(), self.j[first].tolist()))
            counts = np.bincount(index, minlength=len(pairs))
            self._pairs = (pairs, index, counts.tolist())
        return self._pairs

    def size_keys(self) -> list:
        """Distinct size keys present, sorted big-tile-first."""
        pairs, _, _ = self.exponent_pairs()
        keys = sorted({self.shape.size_key(i, j) for (i, j) in pairs})
        _assert_separated(keys)
        return keys

    def class_rank(self) -> dict[tuple[int, int], int]:
        """Map exponent pair -> 1-based size class (1 = largest present)."""
        pairs, _, _ = self.exponent_pairs()
        return size_class_ranks(self.shape, pairs)

    def size_ranks(self, rows=slice(None)) -> np.ndarray:
        """The size class of every tile, or of the tiles at ``rows`` (1 =
        largest present)."""
        import numpy as np
        pairs, index, _ = self.exponent_pairs()
        rank_of = self.class_rank()
        return np.array([rank_of[p] for p in pairs], dtype=np.int64)[index[rows]]

    def exponent_counts(self) -> dict[tuple[int, int], int]:
        """Tiles per exponent pair, in order of first appearance."""
        pairs, _, counts = self.exponent_pairs()
        return dict(zip(pairs, counts))

    def scales(self, rows=slice(None)) -> np.ndarray:
        """The linear scale of every tile (or of the tiles at ``rows``)
        relative to the root."""
        import numpy as np
        pairs, index, _ = self.exponent_pairs()
        return np.array([self.shape.scale(i, j) for i, j in pairs],
                        dtype=np.float64)[index[rows]]

    def vertex_columns(self, rows=slice(None), corners=(0, 1, 2)) -> tuple:
        """(x, y) columns of the small-angle (0), right-angle (1) and
        remaining (2) vertex of every tile, or of the tiles at ``rows``: the
        floats :func:`vertices` gives.  Each of ``corners`` is a vertex
        number or an array of one per row."""
        import numpy as np
        cos_phi, sin_phi = cos_sin(self.phi[rows])
        scale = self.scales(rows)
        points = np.array([(0.0, 0.0), (self.shape.b, 0.0), (self.shape.b, self.shape.a)])
        return tuple(apply_columns(points[k].T, self.handedness[rows], cos_phi,
                                   sin_phi, scale, self.ox[rows], self.oy[rows])
                     for k in corners)

    # -- integrity checks (used by tests, not on every build) -------------

    def validate_cover(self, samples_per_tile: int = 0) -> None:
        """Check that the tile areas sum to the root's and that the sizes
        present fit in one similarity window.  A positive
        ``samples_per_tile`` also checks that a barycentric grid of about
        that many points of each tile (at least its centroid) lies in no
        other tile's interior."""
        if samples_per_tile < 0:
            raise ArgumentError(f"samples_per_tile must be non-negative, "
                                f"got {samples_per_tile}")
        root_area = 0.5 * self.shape.a * self.shape.b
        scale = self.scales()
        total = root_area * math.fsum((scale * scale).tolist())
        if abs(total - root_area) > 1e-10 * root_area:
            raise InternalError(f"areas sum to {total}, root has {root_area}")
        keys = self.size_keys()
        if keys:
            spread = float(keys[-1] - keys[0])
            if self.shape.rationality is not None:
                spread *= self.shape.lattice_unit
            if spread >= self.shape.mu - 1e-12:
                raise InternalError("size spread exceeds the similarity window")
        if samples_per_tile:
            _check_disjoint(self, samples_per_tile)


class _TileView(Sequence):
    """Read-only sequence of :class:`Tile` objects over a tiling's columns."""

    def __init__(self, tiling: Tiling):
        self._tiling = tiling

    def __len__(self) -> int:
        return len(self._tiling)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("tile index out of range")
        t = self._tiling
        return _make_tile(t.shape, *(getattr(t, name)[index].item()
                                     for name, _ in COLUMNS))

    def __iter__(self):
        shape = self._tiling.shape
        for row in self._tiling.rows():
            yield _make_tile(shape, *row)


def _assert_separated(sorted_keys) -> None:
    # Equal keys are fine (one size class reached by several exponent
    # pairs); what must not happen is two classes separated by rounding.
    for prev, cur in zip(sorted_keys, sorted_keys[1:]):
        if cur != prev and float(cur - prev) < NEAR_TIE:
            raise InternalError(
                f"distinct exponent classes nearly tie in size: {prev} vs {cur}")


def size_class_ranks(shape: TriangleShape, pairs) -> dict[tuple[int, int], int]:
    """Exponent pair -> dense 1-based size rank (1 = largest present)."""
    keys = sorted({shape.size_key(i, j) for i, j in pairs})
    key_rank = {k: r + 1 for r, k in enumerate(keys)}
    return {(i, j): key_rank[shape.size_key(i, j)] for i, j in pairs}


def _check_disjoint(tiling: Tiling, samples: int) -> None:
    import numpy as np
    arr = np.transpose(tiling.vertex_columns(), (2, 0, 1))  # (n, 3, 2)
    # a grid of n + 1 points a side; n = 3 leaves only the centroid inside
    n = max(3, int(round((math.sqrt(8 * samples + 1) - 1) / 2)))
    pts = []
    for ii in range(1, n):
        for jj in range(1, n - ii):
            kk = n - ii - jj
            pts.append((ii / n, jj / n, kk / n))
    bary = np.asarray(pts)
    for idx in range(len(arr)):
        tri = arr[idx]
        cloud = bary @ tri  # interior points of tile idx
        others = np.concatenate([arr[:idx], arr[idx + 1:]])
        if len(others) == 0:
            continue
        if _any_point_strictly_inside(cloud, others):
            raise InternalError(f"tile {idx} overlaps a sibling interior")


def _any_point_strictly_inside(points, triangles) -> bool:
    p0 = triangles[:, 0][None, :, :]
    e1 = (triangles[:, 1] - triangles[:, 0])[None, :, :]
    e2 = (triangles[:, 2] - triangles[:, 0])[None, :, :]
    d = points[:, None, :] - p0
    den = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    u = (d[..., 0] * e2[..., 1] - d[..., 1] * e2[..., 0]) / den
    v = (e1[..., 0] * d[..., 1] - e1[..., 1] * d[..., 0]) / den
    eps = 1e-9
    inside = (u > eps) & (v > eps) & (u + v < 1.0 - eps)
    return bool(inside.any())


def _daughters(tiling: Tiling, rows: np.ndarray, first_id: int) -> dict:
    """Columns of the daughters of the tiles at ``rows``: five rows per
    parent, in parent order, each parent's five in the order of
    ``shape.daughter_frames()``, with ids counting up from ``first_id``."""
    import numpy as np
    shape = tiling.shape
    frames = shape.daughter_frames()
    # one row per parent, one column per frame
    per_frame = lambda values: np.array(list(values))
    hand = tiling.handedness[rows][:, None]
    phi = tiling.phi[rows]
    cos_phi, sin_phi = (v[:, None] for v in cos_sin(phi))
    x, y = apply_columns((per_frame(f.origin[0] for f in frames),
                          per_frame(f.origin[1] for f in frames)),
                         hand, cos_phi, sin_phi, tiling.scales()[rows][:, None],
                         tiling.ox[rows][:, None], tiling.oy[rows][:, None])
    kids = {
        "handedness": hand * per_frame(f.handedness for f in frames),
        "phi": wrap_angles(phi[:, None]
                           + hand * per_frame(f.phi(shape.theta) for f in frames)),
        "ox": x,
        "oy": y,
        "i": tiling.i[rows][:, None] + per_frame(f.exp_delta[0] for f in frames),
        "j": tiling.j[rows][:, None] + per_frame(f.exp_delta[1] for f in frames),
        "ids": first_id + len(frames) * np.arange(len(rows), dtype=np.int64)[:, None]
        + np.arange(len(frames)),
        "parent": np.repeat(tiling.ids[rows], len(frames)),
    }
    return {name: np.asarray(kids[name], dtype=dtype).ravel()
            for name, dtype in COLUMNS}


def deflate(tiling: Tiling, cap: int | None = None, winners=None,
            first_id: int | None = None) -> Tiling:
    """Subdivide every largest tile; all other tiles pass through.

    Each subdivided tile is replaced in place by its five daughters, whose
    ids count up from ``first_id`` (default: the largest id present + 1).
    ``winners`` are the size classes to subdivide, as the size-class census
    names them (:func:`_size_class`); by default, the class of least size
    key present."""
    import numpy as np
    if cap is None:
        cap = DEFAULT_TILE_CAP
    if not len(tiling):
        raise ArgumentError("cannot deflate an empty tiling")
    pairs, index, _ = tiling.exponent_pairs()
    canon = _size_class(tiling.shape, True)
    classes = [canon(p) for p in pairs]
    if winners is None:
        winners = _SizeFrontier(tiling.shape, dict.fromkeys(classes)).next_winners()
    if first_id is None:
        first_id = int(tiling.ids.max()) + 1
    winners = set(winners)
    split = np.array([c in winners for c in classes], dtype=bool)[index]
    rows = np.flatnonzero(split)
    predicted = len(tiling) + 4 * len(rows)
    if predicted > cap:
        raise ResourceError(
            f"deflation would produce {predicted} tiles, cap is {cap}")
    width = np.where(split, 5, 1)
    start = np.cumsum(width) - width
    keep = np.flatnonzero(~split)
    kids = _daughters(tiling, rows, first_id)
    kid_at = (start[rows][:, None] + np.arange(5)).ravel()
    out = {}
    for name, dtype in COLUMNS:
        col = np.empty(predicted, dtype=dtype)
        col[start[keep]] = getattr(tiling, name)[keep]
        col[kid_at] = kids[name]
        out[name] = col
    return Tiling(tiling.shape, tiling.generation + 1, out)


def root_tiling(shape: TriangleShape) -> Tiling:
    return _one_tile(shape, 1, 0.0, 0.0, 0.0, 0, 0, 0, -1)


def _sized_census(shape: TriangleShape, n: int, cap: int | None):
    """The size-class census of generations 0..n, each with its tile
    count, refused at the first generation after 0 that passes ``cap``
    tiles: ``deflate`` would raise the same error there."""
    cap = DEFAULT_TILE_CAP if cap is None else cap
    for gen, counts, winners in _census(shape, n, classes=True):
        total = sum(counts.values())
        if gen and total > cap:
            raise ResourceError(f"deflation would produce {total} tiles, cap is {cap}")
        yield gen, counts, winners, total


def _schedule(shape: TriangleShape, n: int, cap: int | None):
    """The winners and the first daughter id of each generation 0..n-1 of
    T_n, and T_n's tile count, from the size-class census, refused before
    anything is built if a generation would pass ``cap`` tiles."""
    schedule, first_id = [], 1
    for gen, counts, winners, total in _sized_census(shape, n, cap):
        if gen < n:
            schedule.append((winners, first_id))
            first_id += 5 * sum(counts[w] for w in winners)
    return schedule, total


def _part(t: Tiling, lo: int, hi: int) -> Tiling:
    """The tiling of rows lo:hi of ``t``, on views of its columns."""
    return Tiling(t.shape, t.generation, {
        name: getattr(t, name)[lo:hi] for name, _ in COLUMNS})


def _batches(shape: TriangleShape, schedule, rows: int | None = None):
    """T_n, for the ``schedule`` of :func:`_schedule`, as consecutive
    ranges of at most ``rows`` (default 2 * JSON_CHUNK_TILES) rows.  Each
    range of a generation is deflated with the census's winners and cut
    into equal ranges of at most ``rows`` rows again, depth first.  A
    tile's daughters take its place, so the ranges of T_n come out in row
    order; a daughter's id is its generation's first id plus 5 times its
    parent's rank among the tiles that subdivide there, counted over the
    earlier ranges."""
    rows = rows or 2 * JSON_CHUNK_TILES
    n = len(schedule)
    split = [0] * n
    todo = [root_tiling(shape)]
    while todo:
        t = todo.pop()
        gen = t.generation
        if gen == n:
            yield t
            continue
        winners, first_id = schedule[gen]
        before = len(t)
        t = deflate(t, winners=winners, first_id=first_id + 5 * split[gen])
        split[gen] += (len(t) - before) // 4
        # equal ranges: a short last one would take as many deflations as
        # a full one
        cuts = -(-len(t) // rows)
        todo += [_part(t, len(t) * k // cuts, len(t) * (k + 1) // cuts)
                 for k in reversed(range(cuts))]


def Tn_batches(shape: TriangleShape, n: int, cap: int | None = None):
    """T_n as consecutive tilings of at most 2 * JSON_CHUNK_TILES tiles
    each, whose rows in order are T_n's.  The tile cap and the near-tie
    checks run before this returns.  The batches are built as they are
    taken, holding at most one deflated range of each generation."""
    return _batches(shape, _schedule(shape, n, cap)[0])


def build_Tn(shape: TriangleShape, n: int, cap: int | None = None) -> Tiling:
    """T_n: the batches of :func:`Tn_batches` joined, refused before
    generation 1 if a generation would pass ``cap`` tiles."""
    import numpy as np
    schedule, total = _schedule(shape, n, cap)
    out = {name: np.empty(total, dtype=dtype) for name, dtype in COLUMNS}
    at = 0
    for batch in _batches(shape, schedule):
        for name, col in out.items():
            col[at:at + len(batch)] = getattr(batch, name)
        at += len(batch)
    return Tiling(shape, n, out)


# -- exact exponent census ---------------------------------------------------


def _same_pair(pair: tuple[int, int]) -> tuple[int, int]:
    return pair


def _size_class(shape: TriangleShape, classes: bool):
    """The map from an exponent pair to the one pair that stands for its
    size class.  On a rational shape p/q the pairs (i + q*t, j - p*t) all
    have the key i*p + j*q, and (i mod q, j + p*(i div q)) is the only one
    of them with i < q.  On an irrational shape, or without ``classes``,
    each pair is its own class."""
    if not classes or shape.rationality is None:
        return _same_pair
    p, q = shape.rationality.numerator, shape.rationality.denominator

    def canon(pair):
        t, i = divmod(pair[0], q)
        return (i, pair[1] + p * t)
    return canon


class _SizeFrontier:
    """The live exponent classes of a tiling or census, sorted by size key.

    Each class is keyed once, when it first appears; later ones are
    placed by bisection.  A deflation removes exactly the equal-key
    prefix, so it never makes two classes adjacent that were not adjacent
    before: the near-tie check needs only a new class's two neighbours,
    and integer (rational) keys need none.  ``canon`` maps each daughter
    class to the pair that stands for it (see :func:`_size_class`).
    """

    def __init__(self, shape: TriangleShape, pairs, canon=_same_pair):
        self._shape = shape
        self._exact = shape.rationality is not None
        self._steps = [step for step, _ in _exponent_steps(shape)]
        self._canon = canon
        self._items = sorted((shape.size_key(*pair), pair) for pair in pairs)
        self._live = set(pairs)
        self._winners: list[tuple[int, int]] = []
        if not self._exact:
            _assert_separated([key for key, _ in self._items])

    def _add(self, pair: tuple[int, int]) -> None:
        item = (self._shape.size_key(*pair), pair)
        at = bisect.bisect(self._items, item)
        self._items.insert(at, item)
        self._live.add(pair)
        if not self._exact:
            _assert_separated([key for key, _ in self._items[max(at - 1, 0):at + 2]])

    def next_winners(self) -> list[tuple[int, int]]:
        """The classes of minimal size key, sorted: the ones the next
        deflation subdivides.  Call once per generation; each call first
        retires the previous call's winners and adds the classes of their
        daughters."""
        if self._winners:
            del self._items[:len(self._winners)]
            self._live.difference_update(self._winners)
            for i, j in self._winners:
                for di, dj in self._steps:
                    pair = self._canon((i + di, j + dj))
                    if pair not in self._live:
                        self._add(pair)
        min_key = self._items[0][0]
        self._winners = [pair for key, pair in
                         itertools.takewhile(lambda kv: kv[0] == min_key, self._items)]
        return self._winners


def _exponent_steps(shape: TriangleShape) -> list:
    """``(exponent step, daughters per parent)`` of each daughter class of
    ``shape.daughter_frames()``, the A-class (1, 0) first."""
    return sorted(Counter(f.exp_delta for f in shape.daughter_frames()).items(),
                  reverse=True)


def _census(shape: TriangleShape, n: int, counts: dict | None = None,
            turns=None, classes: bool = False):
    """:func:`census_steps` without the copies, and with every winner: each
    generation yields its counts and the classes of least size key, which
    it subdivides.  Each yielded dict is the census's own (it is replaced,
    never changed, by the next generation).

    The keys of ``counts`` (default: the root's exponent pair) are an
    exponent pair, then a tail.  A key whose class subdivides splits
    along a table of ``(exponent step, daughters per parent)`` rows: by
    default the rows of :func:`_exponent_steps`, and keys have no tail.
    With ``turns``, each daughter frame is a row, and ``turns(tail)`` lists
    the daughters' tails in frame order (memoised per tail).  With
    ``classes``, a pair stands for its whole size class (:func:`_size_class`),
    for callers that read sizes only."""
    n = as_count(n)
    if n < 0:
        raise ArgumentError(f"generation must be non-negative, got {n}")
    if counts is None:
        counts = {(0, 0): 1}
    if turns is None:
        steps = _exponent_steps(shape)
    else:
        steps = [(f.exp_delta, 1) for f in shape.daughter_frames()]
        turns = functools.cache(turns)
    canon = _size_class(shape, classes)
    frontier = _SizeFrontier(shape, dict.fromkeys(key[:2] for key in counts), canon)
    for gen in range(n + 1):
        winners = frontier.next_winners()
        yield gen, counts, winners
        if gen == n:
            break
        split = set(winners)
        rows = {(i, j): [(canon((i + di, j + dj)), m) for (di, dj), m in steps]
                for i, j in split}
        nxt: dict = {}
        for key, cnt in counts.items():
            pair = key[:2]
            if pair not in split:
                nxt[key] = nxt.get(key, 0) + cnt
            elif turns is None:
                for child, m in rows[pair]:
                    nxt[child] = nxt.get(child, 0) + m * cnt
            else:
                for (child, m), tail in zip(rows[pair], turns(key[2:])):
                    child += tail
                    nxt[child] = nxt.get(child, 0) + m * cnt
        counts = nxt


def census_steps(shape: TriangleShape, n: int):
    """Yield ``(generation, counts, min_pair)`` for generations 0..n.

    ``counts`` maps exponent pairs to exact integer tile counts; it is the
    whole-tiling bookkeeping of :func:`deflate` without any geometry.
    ``min_pair`` is the least exponent pair attaining the minimal size key
    (the class about to subdivide), usable as the size cut of the
    generation.
    """
    for gen, counts, winners in _census(shape, n):
        yield gen, dict(counts), winners[0]


def census_counts(shape: TriangleShape, n: int):
    """Exponent counts and size cut of ``T_n`` (exact integers)."""
    return _census_at(shape, n)


def _census_at(shape: TriangleShape, n: int, classes: bool = False):
    """The counts and the least pair of :func:`_census`'s generation n."""
    for _, counts, winners in _census(shape, n, classes=classes):
        pass
    return counts, winners[0]


# -- edge tracing -------------------------------------------------------------


class TraceSegment(NamedTuple):
    tile_id: int
    kind: str          # "H" hypotenuse, "L" long leg, "S" short leg
    sign: int          # +1 if the tile's own edge direction follows the trace
    length: float
    size_class: int    # 1 = largest size present in the tiling
    position: float    # arc-length offset of the segment start


def _root_edge(shape: TriangleShape, edge: str):
    # Directions are fixed: hypotenuse runs small-angle -> opposite vertex,
    # long leg small-angle -> right angle, short leg right angle -> opposite.
    b, a = shape.b, shape.a
    pts = {
        "hypotenuse": ((0.0, 0.0), (b, a)),
        "long": ((0.0, 0.0), (b, 0.0)),
        "short": ((b, 0.0), (b, a)),
    }
    if edge not in pts:
        raise ArgumentError(f"edge must be hypotenuse/long/short, got {edge!r}")
    return pts[edge]


def trace_edge(tiling: Tiling, edge: str) -> list[TraceSegment]:
    """Tile edges lying along one edge of the root triangle, in order.

    The root edge is directed from its designated start vertex (small-angle
    vertex for hypotenuse and long leg, right-angle vertex for the short
    leg); a segment's sign records whether the owning tile's own edge
    direction agrees with that.
    """
    import numpy as np
    shape = tiling.shape
    p0, p1 = _root_edge(shape, edge)
    ex, ey = p1[0] - p0[0], p1[1] - p0[1]
    total = math.hypot(ex, ey)
    ux, uy = ex / total, ey / total
    tol = 1e-9 * shape.c
    s, c, o = tiling.vertex_columns()
    ranks = tiling.size_ranks()

    found = []
    for kind, q0, q1 in (("H", s, o), ("L", s, c), ("S", c, o)):
        d0x, d0y = q0[0] - p0[0], q0[1] - p0[1]
        d1x, d1y = q1[0] - p0[0], q1[1] - p0[1]
        t0 = d0x * ux + d0y * uy
        t1 = d1x * ux + d1y * uy
        up = t1 > t0
        lo = np.where(t1 < t0, t1, t0)      # Python's min(t0, t1)
        rows = np.flatnonzero((np.abs(d0x * uy - d0y * ux) <= tol)
                              & (np.abs(d1x * uy - d1y * ux) <= tol)
                              & (lo >= -tol) & (np.where(up, t1, t0) <= total + tol))
        found += zip(lo[rows].tolist(), np.abs(t1 - t0)[rows].tolist(),
                     tiling.ids[rows].tolist(), itertools.repeat(kind),
                     np.where(up, 1, -1)[rows].tolist(), ranks[rows].tolist())
    found.sort()
    # the segments must partition [0, total]
    cursor = 0.0
    out = []
    for start, length, tile_id, kind, sign, rank in found:
        if abs(start - cursor) > 1e-7 * shape.c:
            raise InternalError(f"edge trace has a gap near offset {cursor}")
        out.append(TraceSegment(tile_id=tile_id, kind=kind, sign=sign,
                                length=length, size_class=rank, position=start))
        cursor = start + length
    if abs(cursor - total) > 1e-7 * shape.c:
        raise InternalError("edge trace does not reach the far vertex")
    return out


# -- supertile chains ---------------------------------------------------------


class SupertileChain(NamedTuple):
    orders: list[int]
    levels: list[tuple[Tiling, Similarity]]


def grow_supertile(shape: TriangleShape, choices: list[tuple[int, int]],
                   cap: int | None = None) -> SupertileChain:
    """Nest supertiles along a list of ``(n_i, tile_index)`` choices.

    Level 1 is ``T_{n_1}`` with the first chosen tile marking where the
    initial triangle sits.  Each later level ``i`` is the first ``T_m``,
    m >= n_i, in which the descendants of the chosen tile of ``T_{n_i}``
    form a copy of the previous level's ``T_prev``; the recorded embedding
    is the chosen tile's similarity.

    The order m comes from the size-class census.  Size keys add over
    exponent pairs and deflation splits the largest tiles first, so the
    descendants pass through copies of T_0, T_1, ... in order.  The copy
    of T_k becomes one of T_{k+1} at the generation whose winners hold the
    class of the chosen tile's pair plus T_k's least pair, so m is one
    past the generation of the prev-th such split (n_i when prev is 0).
    The walk ends: each generation strictly raises the least size key
    present, and keys below any bound are finitely many.  A class that
    leaves the census before it splits is an internal error.
    """
    chain = SupertileChain([], [])
    if not choices:
        chain.orders.append(0)
        chain.levels.append((build_Tn(shape, 0), Similarity()))
        return chain
    prev = 0
    for n_i, pos in choices:
        pos = as_count(pos, "tile index")
        current = build_Tn(shape, n_i, cap=cap)
        if not (0 <= pos < len(current)):
            raise ArgumentError(f"tile index {pos} out of range for T_{n_i}")
        hand, phi, ox, oy, i, j = (getattr(current, name)[pos].item()
                                   for name in ("handedness", "phi", "ox", "oy", "i", "j"))
        order = _supertile_order(shape, (i, j), n_i, prev, cap) if prev else n_i
        if order != n_i:
            current = build_Tn(shape, order, cap=cap)
        chain.orders.append(order)
        chain.levels.append((current, Similarity(hand, phi, shape.scale(i, j), (ox, oy))))
        prev = order
    return chain


def _supertile_order(shape: TriangleShape, pair: tuple[int, int], n: int,
                     prev: int, cap: int | None) -> int:
    """The generation of the first copy of T_prev, prev >= 1, among the
    descendants of a tile of exponent ``pair`` in T_n (see
    :func:`grow_supertile`)."""
    canon = _size_class(shape, True)
    splits = iter([canon((pair[0] + i, pair[1] + j))
                   for _, _, ((i, j), *_) in _census(shape, prev - 1, classes=True)])
    target = next(splits)
    # no bound but the cap: a generation adds at least 4 tiles
    for gen, counts, winners, _ in _sized_census(shape, sys.maxsize, cap):
        if gen < n:
            continue
        if target in winners:
            target = next(splits, None)
            if target is None:
                return gen + 1
        elif target not in counts:     # the least key present passed it
            raise InternalError(f"supertile descendants passed T_{prev} "
                                "without matching it")


# -- serialization ------------------------------------------------------------


def round12(obj):
    """``obj`` with every float rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def tiling_to_json(tiling: Tiling) -> dict:
    tiles = []
    for hand, phi, ox, oy, i, j, tile_id, parent in tiling.rows():
        tiles.append({
            "id": tile_id,
            "parent": None if parent < 0 else parent,
            "handedness": hand,
            "phi": phi,
            "origin": [ox, oy],
            "i": i,
            "j": j,
        })
    return {
        "format": TILING_FORMAT,
        "shape": tiling.shape.to_json(),
        "generation": tiling.generation,
        "tiles": tiles,
    }


def float_texts(values: np.ndarray, fmt) -> np.ndarray:
    """The text of every float of ``values``, as an object array of the
    same shape.  ``fmt`` maps an array of the distinct bit patterns (so
    0.0 and -0.0 stay apart, as JSON prints them) to a list of texts."""
    import numpy as np
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    texts = np.array(fmt(bits.view(np.float64)), dtype=object)
    return texts[inverse.ravel()].reshape(np.shape(values))


def format_floats(fmt: str, values: np.ndarray) -> list[str]:
    """``[fmt % v for v in values]``, with one ``%`` over all of them."""
    return ((fmt + "\n") * len(values) % tuple(values.tolist())).split("\n")[:-1]


def fill_rows(row: str, sep: str, cells: np.ndarray) -> str:
    """``sep.join(row % tuple(r) for r in cells)``, with one ``%`` over the
    whole table."""
    return sep.join([row] * len(cells)) % tuple(cells.ravel().tolist())


def _json_floats(values: np.ndarray) -> list[str]:
    """The JSON text of ``round12(v)``, ``repr(float(f"{v:.12g}"))``, of
    every value.  Without an exponent the 12-digit text is a normal
    float's, and ``repr`` gives the same digits (another string of at most
    12 digits is another float), with ".0" after an integer."""
    return [repr(float(t)) if "e" in t or "n" in t else t if "." in t else t + ".0"
            for t in format_floats("%.12g", values)]


# One tile of ``json.dumps(..., sort_keys=True, indent=1)`` output.
_TILE_TEXT = ('  {\n   "handedness": %s,\n   "i": %s,\n   "id": %s,\n   "j": %s,\n'
              '   "origin": [\n    %s,\n    %s\n   ],\n   "parent": %s,\n'
              '   "phi": %s\n  }')


def tiling_json_chunks(tiling):
    """Yield the text of ``json.dumps(round12(tiling_to_json(tiling)),
    sort_keys=True, indent=1) + "\\n"`` in pieces of at most
    JSON_CHUNK_TILES tiles, without building the per-tile dicts.
    ``tiling`` is a :class:`Tiling`, taken in batches of two pieces, or
    consecutive tilings such as :func:`Tn_batches` gives; the first batch
    is taken before any text.  The floats of a batch are formatted once
    per distinct value."""
    import numpy as np
    if isinstance(tiling, Tiling):
        step = 2 * JSON_CHUNK_TILES
        tiling = [_part(tiling, lo, lo + step) for lo in range(0, max(len(tiling), 1), step)]
    batches = iter(tiling)
    first = next(batches)
    header = {"format": TILING_FORMAT, "shape": first.shape.to_json(),
              "generation": first.generation}
    if not len(first):
        yield json.dumps(round12({**header, "tiles": []}),
                         sort_keys=True, indent=1) + "\n"
        return
    # "tiles" sorts last: open its list where the header object closes
    yield json.dumps(round12(header), sort_keys=True, indent=1)[:-2] + \
        ',\n "tiles": [\n'
    sep = ""
    for batch in itertools.chain([first], batches):
        cells = np.empty((len(batch), 8), dtype=object)
        cells[:, :4] = np.column_stack((batch.handedness, batch.i, batch.ids, batch.j))
        cells[:, [4, 5, 7]] = float_texts(np.column_stack(
            (batch.ox, batch.oy, batch.phi)), _json_floats)
        cells[:, 6] = batch.parent
        cells[batch.parent < 0, 6] = "null"
        for lo in range(0, len(batch), JSON_CHUNK_TILES):
            yield sep + fill_rows(_TILE_TEXT, ",\n", cells[lo:lo + JSON_CHUNK_TILES])
            sep = ",\n"
    yield "\n ]\n}\n"


def tiling_from_json(data: dict) -> Tiling:
    """The tiling of a parsed ``tilelab-tiling/1`` document.

    Malformed input (wrong format, missing keys, non-integer exponents or
    ids, handedness other than +-1, non-finite floats, headings outside
    [0, reader.PHI_MAX], no tiles) raises :class:`ArgumentError`.  The checks
    are those of the file reader, :func:`tilelab.reader.read_tiling`."""
    from .reader import document_tiling
    return document_tiling(data)
