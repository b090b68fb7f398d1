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
from dataclasses import dataclass

from .errors import ArgumentError
from .geometry import cos_sin
from .substitution import JSON_CHUNK_TILES, Tiling, fill_rows, float_texts

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


def _bounding_box(corners) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1) of the tile vertices; a box that is not finite, or
    whose sides are not, draws nothing and is refused."""
    x0 = min(float(x.min()) for x, _ in corners)
    x1 = max(float(x.max()) for x, _ in corners)
    y0 = min(float(y.min()) for _, y in corners)
    y1 = max(float(y.max()) for _, y in corners)
    if not all(map(math.isfinite, (x0, x1, y0, y1, x1 - x0, y1 - y0))):
        raise ArgumentError("tile vertices do not fit a finite bounding box")
    return x0, x1, y0, y1


@dataclass(frozen=True, slots=True)
class _Run:
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


def _far_corner(side: np.ndarray) -> np.ndarray:
    """Where each side ends: side 3t + s of tile t runs from corner 3t + s
    to corner 3t + (s + 1) % 3."""
    far = side + 1
    far[far % 3 == 0] -= 3
    return far


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


def _line_runs(sides, ux, uy, off, line, px, py, parent, tol) -> list[_Run]:
    """The fault runs of whole lines: ``sides`` sorted by line, ``ux``,
    ``uy`` and ``off`` their direction and offset."""
    import numpy as np
    line = line - line[0]
    # each line is described by the direction and offset of its first edge
    ref = np.flatnonzero(np.diff(line, prepend=-1))
    # each edge as an interval along its own direction, sorted along the line
    far = _far_corner(sides)
    t0 = px[sides] * ux + py[sides] * uy
    t1 = px[far] * ux + py[far] * uy
    lo = np.where(t0 > t1, t1, t0)
    hi = np.where(t0 > t1, t0, t1)
    along = np.lexsort((hi, lo, line))
    line, lo, hi, parent = line[along], lo[along], hi[along], parent[sides[along] // 3]
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
    u, v, d = ux[k], uy[k], off[k]
    bottom, top = lo[first[keep]], reach[last[keep]]
    return [_Run(start=sxy, end=exy, edge_count=e, parent_count=p)
            for sxy, exy, e, p in zip(
                zip((-v * d + u * bottom).tolist(), (u * d + v * bottom).tolist()),
                zip((-v * d + u * top).tolist(), (u * d + v * top).tolist()),
                edges[keep].tolist(), parents[keep].tolist())]


def _direction_runs(sides, ang, px, py, parent, tol) -> list[_Run]:
    """The fault runs of whole directions: ``sides`` sorted by angle (ties
    in side order), ``ang`` the angle of every side."""
    import numpy as np
    a = ang[sides]
    ux, uy = cos_sin(a)
    off = px[sides] * (-uy) + py[sides] * ux   # signed distance of the line
    # split directions at angle gaps > 1e-9 and sort each by offset alone,
    # stably (ties stay by angle, then side); split lines at offset gaps > tol
    direction = np.concatenate(([0], np.cumsum(np.diff(a) > 1e-9)))
    order = np.lexsort((off, direction))
    sides, ux, uy, off = sides[order], ux[order], uy[order], off[order]
    line = np.concatenate(([0], np.cumsum((np.diff(direction[order]) != 0)
                                          | (np.diff(off) > tol))))
    runs = []
    for start, stop in _batches(np.flatnonzero(np.diff(line, prepend=-1)), len(line)):
        part = slice(start, stop)
        runs += _line_runs(sides[part], ux[part], uy[part], off[part], line[part],
                           px, py, parent, tol)
    return runs


def fault_runs(t: Tiling) -> list[_Run]:
    """Maximal straight lines made of >= 2 distinct collinear edges from
    non-sibling tiles.

    Edges are grouped by their supporting line (direction mod pi, signed
    offset), merged along the line, and a merged run qualifies only if it
    contains at least two non-coincident edges owned by tiles with
    different parents.  Shared edges between two cousins collapse to one
    distinct segment and drop out; fault lines survive.
    """
    import numpy as np
    if not len(t):
        return []
    pairs, _, _ = t.exponent_pairs()
    tol = 1e-7 * (t.shape.c * max(t.shape.scale(i, j) for i, j in pairs))
    corners = t.vertex_columns()
    x0, x1, y0, y1 = _bounding_box(corners)
    # every offset and interval end below is at most twice the largest
    # coordinate (4 leaves room for rounding): keep them finite over tol
    if not (tol > 0.0 and 4.0 * max(-x0, x1, -y0, y1) <= tol * sys.float_info.max):
        raise ArgumentError("tile coordinates are too large for the fault "
                            f"tolerance {tol!r}")
    # the corners tile by tile, (sa, ra, ov); the sides are (sa, ra),
    # (ra, ov), (ov, sa), side k running from corner k to _far_corner(k)
    px = np.column_stack([x for x, _ in corners]).ravel()
    py = np.column_stack([y for _, y in corners]).ravel()
    del corners
    # only the corners and the direction of every side are held for the
    # whole tiling; the rest is done a batch of sides at a time
    ang = np.empty_like(px)
    for lo in range(0, len(px), JSON_CHUNK_TILES):
        side = np.arange(lo, min(lo + JSON_CHUNK_TILES, len(px)))
        far = _far_corner(side)
        ang[side] = _line_angles(py[far] - py[side], px[far] - px[side])
    # batches of whole directions (split at angle gaps > 1e-9), each split
    # again into batches of whole lines
    by_angle = np.argsort(ang, kind="stable")
    directions = np.flatnonzero(np.diff(ang[by_angle], prepend=-math.inf) > 1e-9)
    runs = []
    for start, stop in _batches(directions, len(ang)):
        runs += _direction_runs(by_angle[start:stop], ang, px, py, t.parent, tol)
    return runs


def svg_chunks(t: Tiling, color: str = "size", faults: bool = False,
               chunk: int = JSON_CHUNK_TILES):
    """Yield the SVG text of :func:`render_svg` in pieces of at most
    ``chunk`` polygons or fault lines.  Everything that can fail runs
    before the first piece."""
    import numpy as np
    if color not in ("size", "phi"):
        raise ArgumentError(f"unknown color mode {color!r}")
    if not len(t):
        yield ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}"/>\n')
        return
    # the runs first: their working set is gone before the text's is built
    runs = fault_runs(t) if faults else []
    corners = t.vertex_columns()
    x0, x1, y0, y1 = _bounding_box(corners)
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
    floats = [v for corner in corners for v in corner]
    if color == "size":
        fill = "%s"
        last = np.array(PALETTE, dtype=object)[(t.size_ranks() - 1) % len(PALETTE)]
    else:
        fill = "hsl(%s,%s%%,55%%)"
        floats.append(t.phi / (2.0 * math.pi) * 360.0)
        # mirrored tiles at lower saturation so both circles stay visible
        last = np.where(t.handedness > 0, 70, 40)
    row = '<polygon points="%s,%s %s,%s %s,%s" fill="' + fill + tail.replace("%", "%%")
    yield head
    for lo in range(0, len(t), chunk):
        part = slice(lo, lo + chunk)
        cells = np.empty((len(last[part]), len(floats) + 1), dtype=object)
        cells[:, :-1] = float_texts(np.column_stack([v[part] for v in floats]), _fmt)
        cells[:, -1] = last[part]
        yield fill_rows(row, "\n", cells) + "\n"
    if faults:
        yield ('<g stroke="#d62728" fill="none" '
               f'stroke-width="{_fmt(3.0 * stroke)}">\n')
        for lo in range(0, len(runs), chunk):
            ends = np.array([r.start + r.end for r in runs[lo:lo + chunk]],
                            dtype=np.float64)
            yield fill_rows('<line x1="%s" y1="%s" x2="%s" y2="%s"/>', "\n",
                            float_texts(ends, _fmt)) + "\n"
        yield '</g>\n'
    yield '</g>\n</svg>\n'


def render_svg(t: Tiling, color: str = "size", faults: bool = False) -> str:
    """Render a tiling to SVG text (deterministic byte-for-byte)."""
    return "".join(svg_chunks(t, color, faults))
