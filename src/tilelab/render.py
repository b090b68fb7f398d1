"""Deterministic SVG rendering of tilings.

Output is plain SVG 1.1 text: one polygon per tile inside a single
group whose transform maps world coordinates to the canvas (y flipped),
so parsing the polygons back recovers the geometric vertices.  All
floats are printed with 9 significant digits and iteration orders are
fixed, making identical inputs render byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .geometry import cos_sin
from .substitution import Tiling

CANVAS = 1000.0
MARGIN = 20.0

# fixed fills for size classes, cycled past twelve
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


def _fmt(x: float) -> str:
    s = f"{x:.9g}"
    return "0" if s == "-0" else s


def _fills(t: Tiling, mode: str) -> list[str]:
    """The fill of every tile: its size-class color or its heading hue."""
    if mode == "size":
        return [PALETTE[k] for k in ((t.size_ranks() - 1) % len(PALETTE)).tolist()]
    if mode == "phi":
        hues = (t.phi / (2.0 * math.pi) * 360.0 + 0.0).tolist()
        # mirrored tiles at lower saturation so both circles stay visible
        sats = np.where(t.handedness > 0, 70, 40).tolist()
        return [f"hsl({hue:.9g},{sat}%,55%)" for hue, sat in zip(hues, sats)]
    raise ArgumentError(f"unknown color mode {mode!r}")


@dataclass(frozen=True)
class _Run:
    """A maximal collinear stretch of tile edges on one line."""

    start: tuple[float, float]
    end: tuple[float, float]
    edge_count: int
    parent_count: int


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
    pairs, _, _ = t.exponent_pairs()
    tol = 1e-7 * (t.shape.c * max(t.shape.scale(i, j) for i, j in pairs))
    # the three sides of every tile, tile by tile: (sa, ra), (ra, ov), (ov, sa)
    sa, ra, ov = t.vertex_columns()
    px = np.column_stack((sa[0], ra[0], ov[0])).ravel()
    py = np.column_stack((sa[1], ra[1], ov[1])).ravel()
    qx = np.column_stack((ra[0], ov[0], sa[0])).ravel()
    qy = np.column_stack((ra[1], ov[1], sa[1])).ravel()
    parent = np.repeat(t.parent, 3)
    # math.atan2, not np.arctan2: the two differ in the last bit on some hosts
    ang = np.array([math.atan2(dy, dx) % math.pi for dy, dx in
                    zip((qy - py).tolist(), (qx - px).tolist())], dtype=np.float64)
    ang[ang > math.pi - 1e-12] = 0.0
    ux, uy = cos_sin(ang)
    off = px * (-uy) + py * ux   # signed distance of the line
    # sort by (direction, offset) and split directions at gaps > 1e-9;
    # re-sort each direction by offset alone, stably, and split lines at
    # offset gaps > tol
    order = np.lexsort((off, ang))
    direction = np.concatenate(([0], np.cumsum(np.diff(ang[order]) > 1e-9)))
    regroup = np.lexsort((off[order], direction))
    order, direction = order[regroup], direction[regroup]
    line = np.concatenate(([0], np.cumsum((np.diff(direction) != 0)
                                          | (np.diff(off[order]) > tol))))
    # each line is described by the direction and offset of its first edge
    ref = order[np.flatnonzero(np.diff(line, prepend=-1))]
    line_ux, line_uy, line_off = ux[ref].tolist(), uy[ref].tolist(), off[ref].tolist()
    # each edge as an interval along its own direction, sorted along the line
    t0 = px * ux + py * uy
    t1 = qx * ux + qy * uy
    lo = np.where(t0 > t1, t1, t0)
    hi = np.where(t0 > t1, t0, t1)
    along = np.lexsort((hi[order], lo[order], line))
    order, line = order[along], line[along]

    runs: list[_Run] = []

    def close(k, start, end, distinct, parents):
        if len(distinct) >= 2 and len(parents) >= 2:
            u, v, d = line_ux[k], line_uy[k], line_off[k]
            runs.append(_Run(start=(-v * d + u * start, u * d + v * start),
                             end=(-v * d + u * end, u * d + v * end),
                             edge_count=len(distinct),
                             parent_count=len(parents)))

    # merge touching intervals of a line into maximal stretches
    cur = -1
    for k, a, b, par in zip(line.tolist(), lo[order].tolist(),
                            hi[order].tolist(), parent[order].tolist()):
        if k != cur or a > top + tol:
            if cur >= 0:
                close(cur, bottom, top, distinct, parents)
            cur, bottom, top = k, a, b
            distinct = {(round(a / tol), round(b / tol))}
            parents = {par}
        else:
            if b > top:
                top = b
            distinct.add((round(a / tol), round(b / tol)))
            parents.add(par)
    close(cur, bottom, top, distinct, parents)
    return runs


def render_svg(t: Tiling, color: str = "size", faults: bool = False) -> str:
    """Render a tiling to SVG text (deterministic byte-for-byte)."""
    if color not in ("size", "phi"):
        raise ArgumentError(f"unknown color mode {color!r}")
    parts = []
    if not len(t):
        parts.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                     f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}"/>')
        return "\n".join(parts) + "\n"
    corners = t.vertex_columns()
    x0 = min(float(x.min()) for x, _ in corners)
    x1 = max(float(x.max()) for x, _ in corners)
    y0 = min(float(y.min()) for _, y in corners)
    y1 = max(float(y.max()) for _, y in corners)
    span = max(x1 - x0, y1 - y0) or 1.0
    s = (CANVAS - 2 * MARGIN) / span
    tx = MARGIN - x0 * s
    ty = MARGIN + y1 * s  # y axis flips: top of the canvas is max world y
    width = (x1 - x0) * s + 2 * MARGIN
    height = (y1 - y0) * s + 2 * MARGIN
    rank_of = t.class_rank()
    smallest = t.shape.c * min(t.shape.scale(i, j) for i, j in rank_of)
    stroke = 0.04 * smallest
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{_fmt(width)}" height="{_fmt(height)}" '
                 f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    parts.append(f'<g transform="translate({_fmt(tx)},{_fmt(ty)}) '
                 f'scale({_fmt(s)},{_fmt(-s)})">')
    # "+ 0.0" turns -0.0 into 0.0, as _fmt prints it
    coords = [(v + 0.0).tolist() for corner in corners for v in corner]
    tail = f'" stroke="#222222" stroke-width="{_fmt(stroke)}"/>'
    parts.extend(f'<polygon points="{ax:.9g},{ay:.9g} {bx:.9g},{by:.9g} '
                 f'{cx:.9g},{cy:.9g}" fill="{fill}{tail}'
                 for ax, ay, bx, by, cx, cy, fill in zip(*coords, _fills(t, color)))
    if faults:
        parts.append('<g stroke="#d62728" fill="none" '
                     f'stroke-width="{_fmt(3.0 * stroke)}">')
        for run in fault_runs(t):
            parts.append(f'<line x1="{_fmt(run.start[0])}" y1="{_fmt(run.start[1])}" '
                         f'x2="{_fmt(run.end[0])}" y2="{_fmt(run.end[1])}"/>')
        parts.append('</g>')
    parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
