"""Deterministic SVG rendering of tilings.

Output is plain SVG 1.1 text: one polygon per tile inside a single
group whose transform maps world coordinates to the canvas (y flipped),
so parsing the polygons back recovers the geometric vertices.  All
floats are printed with 9 significant digits and iteration orders are
fixed, making identical inputs render byte-identically.  The text comes
in pieces of a fixed number of polygons or fault lines
(:func:`svg_chunks`), so a writer never holds the whole document.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ArgumentError
from .geometry import cos_sin
from .substitution import JSON_CHUNK_TILES, Tiling, fill_rows, float_texts, format_floats

CANVAS = 1000.0
MARGIN = 20.0

# The fault pass works on batches of whole directions and of whole lines of
# up to this many JSON_CHUNK_TILES sides: in process on 2 vCPUs, one chunk
# a batch took 0.51 s on p/q = 1/2 T_13 against 0.47 s for four (medians
# of five alternating runs), the difference being numpy calls per batch.
FAULT_BATCH_CHUNKS = 4

# fixed fills for size classes, cycled past twelve
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


def _fmt(x: float) -> str:
    # "+ 0.0" turns -0.0 into 0.0, which prints as "0"
    return f"{x + 0.0:.9g}"


def _fmts(values: np.ndarray) -> list[str]:
    """:func:`_fmt` of every value."""
    return format_floats("%.9g", values + 0.0)


def _bounding_box(t: Tiling) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1) of the tile vertices, a batch of JSON_CHUNK_TILES
    tiles at a time; a box that is not finite, or whose sides are not,
    draws nothing and is refused."""
    import numpy as np
    lows, highs = [], []
    for lo in range(0, len(t), JSON_CHUNK_TILES):
        x, y = map(np.concatenate, zip(*t.vertex_columns(slice(lo, lo + JSON_CHUNK_TILES))))
        lows.append((x.min(), y.min()))
        highs.append((x.max(), y.max()))
    (x0, y0), (x1, y1) = np.min(lows, axis=0).tolist(), np.max(highs, axis=0).tolist()
    if not all(map(math.isfinite, (x0, x1, y0, y1, x1 - x0, y1 - y0))):
        raise ArgumentError("tile vertices do not fit a finite bounding box")
    return x0, x1, y0, y1


class _Run(NamedTuple):
    """A maximal collinear stretch of tile edges on one line."""

    start: tuple[float, float]
    end: tuple[float, float]
    edge_count: int
    parent_count: int


def _order(head: np.ndarray, values: np.ndarray, *tail) -> np.ndarray:
    """The order of the rows by integer ``head``, then float ``values``
    (-0.0 equal to 0.0), then the integer keys ``tail``, then row: one
    sort of the values, ties in no set order, and one of the codes of the
    keys in that order.  It holds one array of the rows at a time besides
    the order of the values."""
    import numpy as np
    perm = np.argsort(values)
    fresh = np.zeros(len(perm), dtype=bool)
    ordered = values[perm]
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    del ordered
    code = _code(head[perm], np.cumsum(fresh), *(key[perm] for key in tail), perm)
    del fresh
    order = np.argsort(code)
    del code
    return perm[order]


def _code(*keys) -> np.ndarray:
    """One int64 per row that orders the rows as the tuples of integer
    ``keys``, the first key primary: each key less its least value, or its
    dense ranks where that would pass int64, and so are the codes of the
    keys before it."""
    import numpy as np
    code, size = np.zeros(len(keys[0]), dtype=np.int64), 1
    for key in keys:
        least, span = int(key.min()), int(key.max()) - int(key.min()) + 1
        if size * span >= 1 << 63:
            distinct, key = np.unique(key, return_inverse=True)
            least, span = 0, len(distinct)
        if size * span >= 1 << 63:
            distinct, code = np.unique(code, return_inverse=True)
            size = len(distinct)
        code *= span
        code += key - least if least else key
        size *= span
    return code


def _line_angles(dy: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction mod pi of every edge, 0 just below pi, as angles and each
    edge's index into them.  Uses math.atan2, not np.arctan2 (the two differ
    in the last bit on some hosts), once per stretch of equal (dx, dy) bit
    patterns in the order of a 64-bit mix of the bits: a pattern whose mix
    another one shares may take more than one stretch."""
    import numpy as np
    bx, by = dx.view(np.int64), dy.view(np.int64)
    mix = bx * np.int64(-7046029254386353131)
    order = np.argsort(mix ^ (mix >> 29) ^ by)
    bx, by = bx[order], by[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (bx[1:] != bx[:-1]) | (by[1:] != by[:-1])
    first = order[fresh]
    ang = np.array([math.atan2(y, x) % math.pi for y, x in
                    zip(dy[first].tolist(), dx[first].tolist())], dtype=np.float64)
    ang[ang > math.pi - 1e-12] = 0.0
    index = np.empty(len(order), dtype=np.min_scalar_type(len(order)))
    index[order] = np.cumsum(fresh) - 1
    return ang, index


def _side_directions(t: Tiling) -> tuple[np.ndarray, np.ndarray]:
    """The direction mod pi of every side as an index into the sorted
    distinct directions of the tiling, and those directions: side 3t + s
    runs from vertex s of tile t to vertex (s + 1) % 3.  Angles are taken
    JSON_CHUNK_TILES tiles at a time; only the indices are held for the
    whole tiling."""
    import numpy as np
    chunks = range(0, len(t), JSON_CHUNK_TILES)
    index = np.empty(3 * len(t), dtype=np.min_scalar_type(3 * JSON_CHUNK_TILES))
    angles = []
    for lo in chunks:
        xs, ys = zip(*t.vertex_columns(slice(lo, lo + JSON_CHUNK_TILES)))
        dx = np.column_stack(xs[1:] + xs[:1]) - np.column_stack(xs)
        dy = np.column_stack(ys[1:] + ys[:1]) - np.column_stack(ys)
        ang, index[3 * lo:3 * lo + dx.size] = _line_angles(dy.ravel(), dx.ravel())
        angles.append(ang)
    vals, rank = np.unique(np.concatenate(angles), return_inverse=True)
    ids = index.astype(np.promote_types(index.dtype, np.min_scalar_type(len(vals))),
                       copy=False)
    at = 0
    for lo, ang in zip(chunks, angles):
        part = slice(3 * lo, 3 * lo + 3 * JSON_CHUNK_TILES)
        ids[part] = rank[at:at + len(ang)][index[part]]
        at += len(ang)
    return ids, vals


def _sides_by_id(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sides in order of their id (< ``size``), each id's in side order,
    and how many sides each id has: a counting sort, JSON_CHUNK_TILES tiles'
    sides at a time, into the smallest unsigned type that holds a side."""
    import numpy as np
    step = 3 * JSON_CHUNK_TILES
    counts = sum(np.bincount(ids[lo:lo + step], minlength=size)
                 for lo in range(0, len(ids), step))
    at = np.cumsum(counts) - counts
    order = np.empty(len(ids), dtype=np.min_scalar_type(len(ids)))
    for lo in range(0, len(ids), step):
        part = ids[lo:lo + step]
        by = np.argsort(part, kind="stable")
        key = part[by]
        # each side's place among the sides of its id in this piece
        place = np.arange(len(key))
        fresh = np.ones(len(key), dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        place -= np.maximum.accumulate(np.where(fresh, place, 0))
        order[at[key] + place] = by + lo
        np.add.at(at, key, 1)
    return order, counts


def _batches(starts: np.ndarray, size: int):
    """(start, stop) of consecutive batches of whole groups, the groups of
    ``size`` items beginning at ``starts`` (0 first): at most
    FAULT_BATCH_CHUNKS * JSON_CHUNK_TILES items a batch, or one group that
    has more."""
    import numpy as np
    bounds = np.append(starts, size)
    start = 0
    while start < size:
        at = np.searchsorted(bounds, start + FAULT_BATCH_CHUNKS * JSON_CHUNK_TILES,
                             side="right") - 1
        stop = int(bounds[at] if bounds[at] > start else bounds[at + 1])
        yield start, stop
        start = stop


def _distinct_per_run(first: np.ndarray, *keys) -> np.ndarray:
    """How many distinct tuples of integer ``keys`` each run holds, the
    runs being the stretches of rows that begin at ``first`` and the first
    key growing from run to run."""
    import numpy as np
    code = np.sort(_code(*keys))
    # sorted, each run's codes keep the run's rows
    fresh = np.ones(len(code), dtype=bool)
    fresh[1:] = code[1:] != code[:-1]
    return np.add.reduceat(fresh, first, dtype=np.int64)


def _line_runs(t, sides, d, off, lo, hi, new_line, unit, tol) -> tuple[np.ndarray, ...]:
    """The fault runs of whole lines, as :func:`_fault_columns` gives them:
    ``sides`` sorted by line, ``new_line`` true at the first side of each
    line, ``d`` their direction ids, ``off``, ``lo`` and ``hi`` their
    offsets and ends along their own direction, ``unit`` the cosine and
    sine of every direction id."""
    import numpy as np
    n = len(hi)
    # each line is described by the direction and offset of its first edge
    ref = np.flatnonzero(new_line)
    line = np.cumsum(new_line) - 1
    # each edge as an interval along its own direction, sorted along the
    # line, then by its place in ``sides``
    uhi, hi_rank = np.unique(hi, return_inverse=True)
    along = _order(line, lo, hi_rank)
    line, lo, hi, hi_rank = line[along], lo[along], hi[along], hi_rank[along]
    parent = t.parent[sides[along] // 3]

    # merge touching intervals of a line into maximal stretches: a run
    # starts at a new line or where an edge begins past reach + tol, the
    # reach being the largest hi so far on the line (a new run's first hi
    # exceeds every earlier one, so this is also the largest hi of the run)
    reach = uhi[np.maximum.accumulate(line * len(uhi) + hi_rank) - line * len(uhi)]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (line[1:] != line[:-1]) | (lo[1:] > reach[:-1] + tol)
    first = np.flatnonzero(starts)
    # a run ends at its largest hi, the last of equal ones (-0.0 or 0.0)
    top = hi[np.maximum.reduceat(hi_rank * n + np.arange(n), first) % n]

    # distinct edges are told apart by (round(lo/tol), round(hi/tol));
    # np.rint rounds half to even as round does, "+ 0.0" folds -0.0 into 0.
    # Both keys grow with lo and hi, so within a run the lo keys never
    # fall: each (run, lo key) is a stretch of rows
    lo_key = np.rint(lo / tol) + 0.0
    stretch = starts.copy()
    stretch[1:] |= lo_key[1:] != lo_key[:-1]
    hi_key = np.rint(uhi / tol) + 0.0
    hi_key_rank = np.cumsum(np.append(False, hi_key[1:] != hi_key[:-1]))
    edges = _distinct_per_run(first, np.cumsum(stretch), hi_key_rank[hi_rank])
    parents = _distinct_per_run(first, np.cumsum(starts), parent)
    keep = (edges >= 2) & (parents >= 2)
    k = ref[line[first[keep]]]
    u, v = unit[0][d[k]], unit[1][d[k]]
    dist, bottom, top = off[k], lo[first[keep]], top[keep]
    return (np.column_stack((-v * dist + u * bottom, u * dist + v * bottom,
                             -v * dist + u * top, u * dist + v * top)),
            edges[keep], parents[keep])


def _direction_runs(t, sides, d, direction, unit, tol) -> tuple[np.ndarray, ...]:
    """The fault runs of whole directions, found a batch of lines at a time:
    ``sides`` sorted by direction id ``d``, ``direction`` the direction
    that each id's angle falls in, ``unit`` the cosine and sine of every id."""
    import numpy as np
    n = len(sides)
    # each side's offset and its ends along its own direction
    off, lo, hi = np.empty(n), np.empty(n), np.empty(n)
    for b in range(0, n, JSON_CHUNK_TILES):
        part = slice(b, b + JSON_CHUNK_TILES)
        ux, uy = unit[0][d[part]], unit[1][d[part]]
        # side 3t + s runs from vertex s of tile t to vertex (s + 1) % 3
        near = sides[part] % 3
        (sx, sy), (ex, ey) = t.vertex_columns(sides[part] // 3, (near, (near + 1) % 3))
        off[part] = sx * (-uy) + sy * ux
        t0 = sx * ux + sy * uy
        t1 = ex * ux + ey * uy
        lo[part] = np.where(t0 > t1, t1, t0)
        hi[part] = np.where(t0 > t1, t0, t1)
    # sort each direction by offset, then angle and side (the order of
    # ``sides``); split lines at offset gaps > tol.  The arrays are put in
    # that order one at a time, to hold one copy more at most.
    direction = direction[d]
    order = _order(direction, off)
    sides, d, direction = sides[order], d[order], direction[order]
    off = off[order]
    lo = lo[order]
    hi = hi[order]
    del order
    new_line = np.ones(n, dtype=bool)
    new_line[1:] = (direction[1:] != direction[:-1]) | (off[1:] - off[:-1] > tol)
    return tuple(map(np.concatenate, zip(*(
        _line_runs(t, sides[b:e], d[b:e], off[b:e], lo[b:e], hi[b:e], new_line[b:e], unit, tol)
        for b, e in _batches(np.flatnonzero(new_line), n)))))


def _fault_columns(t: Tiling, box) -> tuple[np.ndarray, ...]:
    """The runs of :func:`fault_runs` as columns: (m, 4) start and end x, y,
    edge counts and parent counts; ``box`` is :func:`_bounding_box` of ``t``."""
    import numpy as np
    pairs, _, _ = t.exponent_pairs()
    tol = 1e-7 * (t.shape.c * max(t.shape.scale(i, j) for i, j in pairs))
    # every offset and interval end below is at most twice the largest
    # coordinate (4 leaves room for rounding): keep them finite over tol
    if not (tol > 0.0 and 4.0 * max(map(abs, box)) <= tol * sys.float_info.max):
        raise ArgumentError("tile coordinates are too large for the fault "
                            f"tolerance {tol!r}")
    # only the sides in order of their direction id are held for the whole
    # tiling.  Directions split the ids at angle gaps > 1e-9, and a batch of
    # whole directions is a range of ids and of that order.
    ids, vals = _side_directions(t)
    by_id, counts = _sides_by_id(ids, len(vals))
    del ids
    gap = np.diff(vals, prepend=-math.inf) > 1e-9
    heads = np.flatnonzero(gap)
    direction = np.cumsum(gap).astype(np.min_scalar_type(len(heads)))
    unit = cos_sin(vals)
    first = np.cumsum(counts) - counts
    batches = list(_batches(first[heads], len(by_id)))
    runs = [None] * len(batches)
    # the largest batches first, while the runs collected are fewest.  Each
    # batch's runs are copied once its working set is freed, into the room
    # it leaves: kept where they were made, they held that room, and the
    # heap grew batch by batch (61 against 60 MiB on p/q = 1/2 T_13).
    for k in sorted(range(len(batches)), key=lambda k: batches[k][0] - batches[k][1]):
        start, stop = batches[k]
        a, b = np.searchsorted(first, (start, stop))
        d = np.repeat(np.arange(a, b, dtype=np.min_scalar_type(len(vals))), counts[a:b])
        runs[k] = tuple(col.copy() for col in
                        _direction_runs(t, by_id[start:stop], d, direction, unit, tol))
    del by_id
    return tuple(map(np.concatenate, zip(*runs)))


def fault_runs(t: Tiling) -> list[_Run]:
    """Maximal straight lines made of >= 2 distinct collinear edges from
    non-sibling tiles.

    Edges are grouped by their supporting line (direction mod pi, signed
    offset), merged along the line, and a merged run qualifies only if it
    contains at least two non-coincident edges owned by tiles with
    different parents.  Shared edges between two cousins collapse to one
    distinct segment and drop out; fault lines survive.
    """
    if not len(t):
        return []
    ends, edges, parents = (c.tolist() for c in _fault_columns(t, _bounding_box(t)))
    return [_Run((sx, sy), (ex, ey), e, p) for (sx, sy, ex, ey), e, p in zip(ends, edges, parents)]


def svg_chunks(t: Tiling, color: str = "size", faults: bool = False):
    """Yield the SVG text of :func:`render_svg` in pieces of at most
    JSON_CHUNK_TILES polygons or fault lines.  Everything that can fail runs
    before the first piece."""
    import numpy as np
    if color not in ("size", "phi"):
        raise ArgumentError(f"unknown color mode {color!r}")
    if not len(t):
        yield ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}"/>\n')
        return
    x0, x1, y0, y1 = box = _bounding_box(t)
    # the runs first: their working set is gone before the text's is built
    ends = _fault_columns(t, box)[0] if faults else None
    span = max(x1 - x0, y1 - y0) or 1.0
    s = (CANVAS - 2 * MARGIN) / span
    tx = MARGIN - x0 * s
    ty = MARGIN + y1 * s  # y axis flips: top of the canvas is max world y
    width = (x1 - x0) * s + 2 * MARGIN
    height = (y1 - y0) * s + 2 * MARGIN
    rank_of = t.class_rank()
    smallest = t.shape.c * min(t.shape.scale(i, j) for i, j in rank_of)
    stroke = 0.04 * smallest
    head = ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
            f'<g transform="translate({_fmt(tx)},{_fmt(ty)}) '
            f'scale({_fmt(s)},{_fmt(-s)})">\n')
    tail = f'" stroke="#222222" stroke-width="{_fmt(stroke)}"/>'
    # each polygon row: six vertex coordinates, then its size-class color
    # or its heading hue and saturation
    fill = "%s" if color == "size" else "hsl(%s,%s%%,55%%)"
    row = '<polygon points="%s,%s %s,%s %s,%s" fill="' + fill + tail.replace("%", "%%")
    yield head
    for lo in range(0, len(t), JSON_CHUNK_TILES):
        part = slice(lo, lo + JSON_CHUNK_TILES)
        floats = [v for corner in t.vertex_columns(part) for v in corner]
        if color == "size":
            last = np.array(PALETTE, dtype=object)[(t.size_ranks(part) - 1) % len(PALETTE)]
        else:
            floats.append(t.phi[part] / (2.0 * math.pi) * 360.0)
            # mirrored tiles at lower saturation so both circles stay visible
            last = np.where(t.handedness[part] > 0, 70, 40)
        cells = np.empty((len(last), len(floats) + 1), dtype=object)
        cells[:, :-1] = float_texts(np.column_stack(floats), _fmts)
        cells[:, -1] = last
        yield fill_rows(row, "\n", cells) + "\n"
    if faults:
        yield ('<g stroke="#d62728" fill="none" '
               f'stroke-width="{_fmt(3.0 * stroke)}">\n')
        for lo in range(0, len(ends), JSON_CHUNK_TILES):
            yield fill_rows('<line x1="%s" y1="%s" x2="%s" y2="%s"/>', "\n",
                            float_texts(ends[lo:lo + JSON_CHUNK_TILES], _fmts)) + "\n"
        yield '</g>\n'
    yield '</g>\n</svg>\n'


def render_svg(t: Tiling, color: str = "size", faults: bool = False) -> str:
    """Render a tiling to SVG text (deterministic byte-for-byte)."""
    return "".join(svg_chunks(t, color, faults))
