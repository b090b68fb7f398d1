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


def _sorted_groups(*keys) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexsort order of ``keys`` (last key primary) and a mask
    over that order marking where each run of equal key tuples begins."""
    import numpy as np
    order = np.lexsort(keys)
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for col in keys:
        col = col[order]
        fresh[1:] |= col[1:] != col[:-1]
    return order, fresh


def _line_angles(dy: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Direction mod pi of every edge, 0 just below pi.  Uses math.atan2,
    not np.arctan2 (the two differ in the last bit on some hosts), once
    per distinct (dy, dx) bit pattern."""
    import numpy as np
    order, fresh = _sorted_groups(dx.view(np.int64), dy.view(np.int64))
    first = order[fresh]
    ang = np.array([math.atan2(y, x) % math.pi for y, x in
                    zip(dy[first].tolist(), dx[first].tolist())], dtype=np.float64)
    ang[ang > math.pi - 1e-12] = 0.0
    out = np.empty_like(ang, shape=len(order))
    out[order] = ang[np.cumsum(fresh) - 1]
    return out


def _distinct_per_run(run: np.ndarray, runs: int, *keys) -> np.ndarray:
    """How many distinct tuples of ``keys`` each of the ``runs`` runs holds."""
    import numpy as np
    order, fresh = _sorted_groups(*keys, run)
    return np.bincount(run[order][fresh], minlength=runs)


def _batches(starts: np.ndarray, size: int):
    """(start, stop) of consecutive batches of whole groups, the groups of
    ``size`` items beginning at ``starts`` (0 first): at most
    JSON_CHUNK_TILES items a batch, or one group that has more."""
    import numpy as np
    bounds = np.append(starts, size)
    start = 0
    while start < size:
        at = np.searchsorted(bounds, start + JSON_CHUNK_TILES, side="right") - 1
        stop = int(bounds[at] if bounds[at] > start else bounds[at + 1])
        yield start, stop
        start = stop


def _line_runs(t, sides, off, lo, hi, line, ang, tol) -> tuple[np.ndarray, ...]:
    """The fault runs of whole lines, as :func:`_fault_columns` gives them:
    ``sides`` sorted by line, ``off``, ``lo`` and ``hi`` their offsets and
    ends along their own direction, ``ang`` the angle of every side."""
    import numpy as np
    line = line - line[0]
    # each line is described by the direction and offset of its first edge
    ref = np.flatnonzero(np.diff(line, prepend=-1))
    # each edge as an interval along its own direction, sorted along the line
    along = np.lexsort((hi, lo, line))
    line, lo, hi, parent = line[along], lo[along], hi[along], t.parent[sides[along] // 3]
    # distinct edges are told apart by (round(lo/tol), round(hi/tol));
    # np.rint rounds half to even as round does, "+ 0.0" folds -0.0 into 0
    lo_key = np.rint(lo / tol) + 0.0
    hi_key = np.rint(hi / tol) + 0.0

    # merge touching intervals of a line into maximal stretches: a run
    # starts at a new line or where an edge begins past reach + tol, the
    # reach being the largest hi so far on the line (a new run's first hi
    # exceeds every earlier one, so this is also the largest hi of the run).
    # The running max goes over integer ranks of hi, offset by line.
    n = len(hi)
    rank = np.empty(n, dtype=np.int64)
    by_hi = np.argsort(hi, kind="stable")
    rank[by_hi] = np.arange(n)
    reach = hi[by_hi][np.maximum.accumulate(line * n + rank) - line * n]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (line[1:] != line[:-1]) | (lo[1:] > reach[:-1] + tol)
    first = np.flatnonzero(starts)
    last = np.append(first[1:], n) - 1
    run = np.cumsum(starts) - 1
    edges = _distinct_per_run(run, len(first), lo_key, hi_key)
    parents = _distinct_per_run(run, len(first), parent)
    keep = (edges >= 2) & (parents >= 2)
    k = ref[line[first[keep]]]
    (u, v), d = cos_sin(ang[sides[k]]), off[k]
    bottom, top = lo[first[keep]], reach[last[keep]]
    return (np.column_stack((-v * d + u * bottom, u * d + v * bottom,
                             -v * d + u * top, u * d + v * top)),
            edges[keep], parents[keep])


def _direction_runs(t, sides, heads, ang, tol) -> list[tuple[np.ndarray, ...]]:
    """The fault runs of whole directions, a batch of lines at a time:
    ``heads`` is the least angle of every direction."""
    import numpy as np
    a = ang[sides]
    # each side's offset and its ends along its own direction
    off, lo, hi = np.empty((3, len(sides)))
    for b in range(0, len(sides), JSON_CHUNK_TILES):
        part = slice(b, b + JSON_CHUNK_TILES)
        ux, uy = cos_sin(a[part])
        # side 3t + s runs from vertex s of tile t to vertex (s + 1) % 3
        near = sides[part] % 3
        (sx, sy), (ex, ey) = t.vertex_columns(sides[part] // 3, (near, (near + 1) % 3))
        off[part] = sx * (-uy) + sy * ux
        t0 = sx * ux + sy * uy
        t1 = ex * ux + ey * uy
        lo[part] = np.where(t0 > t1, t1, t0)
        hi[part] = np.where(t0 > t1, t0, t1)
    # sort each direction by offset, then angle, then side; split lines at
    # offset gaps > tol
    direction = np.searchsorted(heads, a, side="right")
    order = np.lexsort((a, off, direction))
    del a
    sides, off, lo, hi, direction = (v[order] for v in (sides, off, lo, hi, direction))
    starts = np.flatnonzero(np.diff(direction, prepend=-1)
                            | (np.diff(off, prepend=-math.inf) > tol))
    return [_line_runs(t, sides[b:e], off[b:e], lo[b:e], hi[b:e],
                       np.searchsorted(starts, np.arange(b, e), side="right"),
                       ang, tol) for b, e in _batches(starts, len(sides))]


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
    # only the angle of every side is held for the whole tiling
    ang = np.empty(3 * len(t))
    for lo in range(0, len(t), JSON_CHUNK_TILES):
        xs, ys = zip(*t.vertex_columns(slice(lo, lo + JSON_CHUNK_TILES)))
        dx = np.column_stack(xs[1:] + xs[:1]) - np.column_stack(xs)
        dy = np.column_stack(ys[1:] + ys[:1]) - np.column_stack(ys)
        ang[3 * lo:3 * lo + dx.size] = _line_angles(dy.ravel(), dx.ravel())
    # the distinct angles and their side counts; directions split them at
    # gaps > 1e-9, and a batch of whole directions is a range of angles
    vals, counts = np.unique(ang, return_counts=True)
    groups = np.flatnonzero(np.diff(vals, prepend=-math.inf) > 1e-9)
    ranks = np.cumsum(counts) - counts
    runs = []
    for start, stop in _batches(ranks[groups], len(ang)):
        lo, hi = vals[np.searchsorted(ranks, (start, stop)) - (0, 1)]
        runs += _direction_runs(t, np.flatnonzero((ang >= lo) & (ang <= hi)),
                                vals[groups], ang, tol)
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
