import math
import re
import tracemalloc

import numpy as np
import pytest

from tilelab import render
from tilelab.errors import ArgumentError
from tilelab.geometry import cos_sin, shape_from_pq, shape_from_theta
from tilelab.render import _Run, fault_runs, render_svg, svg_chunks
from tilelab.substitution import Tiling, build_Tn, vertices

POLY = re.compile(r'<polygon points="([^"]+)"')


def _areas(svg: str) -> list[float]:
    out = []
    for m in POLY.finditer(svg):
        pts = [tuple(map(float, chunk.split(",")))
               for chunk in m.group(1).split()]
        acc = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            acc += x0 * y1 - x1 * y0
        out.append(abs(acc) / 2.0)
    return out


def test_first_generation_polygons(til12):
    svg = render_svg(build_Tn(til12, 1))
    areas = _areas(svg)
    assert len(areas) == 5
    root = til12.a * til12.b / 2.0
    assert sum(areas) == pytest.approx(root, rel=1e-7)


def test_svg_is_deterministic(til12):
    t = build_Tn(til12, 5)
    assert render_svg(t) == render_svg(t)
    assert render_svg(t, color="phi", faults=True) == \
        render_svg(t, color="phi", faults=True)


def test_color_modes(til12):
    t = build_Tn(til12, 3)
    by_size = render_svg(t, color="size")
    by_phi = render_svg(t, color="phi")
    assert "hsl(" in by_phi
    assert "hsl(" not in by_size
    with pytest.raises(ArgumentError):
        render_svg(t, color="rainbow")


def test_empty_tiling_renders_shell(til12):
    svg = render_svg(Tiling(til12, [], 0))
    assert svg.startswith("<svg")
    assert "<polygon" not in svg


def test_fault_overlay_markup(til12, til12_T10):
    svg = render_svg(til12_T10, faults=True)
    assert '<g stroke="#d62728"' in svg
    assert "<line" in svg


def test_main_diagonal_fault_run(til12, til12_T10):
    """The full hypotenuse-to-right-angle diagonal is a fault of T_10:
    many edges from many distinct parents line up along it."""
    a, b = til12.a, til12.b
    diag = [r for r in fault_runs(til12_T10)
            if abs(r.start[1] * b - r.start[0] * a) < 1e-7
            and abs(r.end[1] * b - r.end[0] * a) < 1e-7]
    assert len(diag) == 1
    run = diag[0]
    length = math.hypot(run.end[0] - run.start[0], run.end[1] - run.start[1])
    assert length == pytest.approx(til12.c, rel=1e-9)
    assert run.edge_count >= 2
    assert run.parent_count >= 2


def test_fault_runs_need_two_parents(til12):
    # a single subdivision has sibling contacts only, no qualifying run
    assert fault_runs(build_Tn(til12, 1)) == []


def test_polygon_points_round_trip(til12):
    """Polygon coordinates are world coordinates verbatim (the group
    transform owns the viewport), so they must replay vertices()."""
    t = build_Tn(til12, 1)
    svg = render_svg(t)
    polys = [[tuple(map(float, chunk.split(","))) for chunk in m.group(1).split()]
             for m in POLY.finditer(svg)]
    assert len(polys) == len(t.tiles)
    for tile, pts in zip(t.tiles, polys):
        for want, got in zip(vertices(tile)[:3], pts):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)


def ref_fault_runs(t):
    """Fault runs with the edge-by-edge merge loop over the column grouping
    that the array merge replaced."""
    if not len(t):
        return []
    pairs, _, _ = t.exponent_pairs()
    tol = 1e-7 * (t.shape.c * max(t.shape.scale(i, j) for i, j in pairs))
    sa, ra, ov = t.vertex_columns()
    px = np.column_stack((sa[0], ra[0], ov[0])).ravel()
    py = np.column_stack((sa[1], ra[1], ov[1])).ravel()
    qx = np.column_stack((ra[0], ov[0], sa[0])).ravel()
    qy = np.column_stack((ra[1], ov[1], sa[1])).ravel()
    parent = np.repeat(t.parent, 3)
    ang = np.array([math.atan2(dy, dx) % math.pi for dy, dx in
                    zip((qy - py).tolist(), (qx - px).tolist())], dtype=np.float64)
    ang[ang > math.pi - 1e-12] = 0.0
    ux, uy = cos_sin(ang)
    off = px * (-uy) + py * ux
    order = np.lexsort((off, ang))
    direction = np.concatenate(([0], np.cumsum(np.diff(ang[order]) > 1e-9)))
    regroup = np.lexsort((off[order], direction))
    order, direction = order[regroup], direction[regroup]
    line = np.concatenate(([0], np.cumsum((np.diff(direction) != 0)
                                          | (np.diff(off[order]) > tol))))
    ref = order[np.flatnonzero(np.diff(line, prepend=-1))]
    line_ux, line_uy, line_off = ux[ref].tolist(), uy[ref].tolist(), off[ref].tolist()
    t0 = px * ux + py * uy
    t1 = qx * ux + qy * uy
    lo = np.where(t0 > t1, t1, t0)
    hi = np.where(t0 > t1, t0, t1)
    along = np.lexsort((hi[order], lo[order], line))
    order, line = order[along], line[along]
    runs = []

    def close(k, start, end, distinct, parents):
        if len(distinct) >= 2 and len(parents) >= 2:
            u, v, d = line_ux[k], line_uy[k], line_off[k]
            runs.append(_Run(start=(-v * d + u * start, u * d + v * start),
                             end=(-v * d + u * end, u * d + v * end),
                             edge_count=len(distinct),
                             parent_count=len(parents)))

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


@pytest.mark.parametrize("shape,generations", [
    (shape_from_pq(1, 1), (1, 2, 3, 4)),
    (shape_from_pq(1, 2), (2, 5, 8, 10)),
    (shape_from_pq(2, 1), (3, 6, 8)),
    (shape_from_pq(1, 3), (4, 8, 12)),
    (shape_from_theta(1.0), (5, 20, 35)),
], ids=["pq11", "pq12", "pq21", "pq13", "theta1"])
def test_fault_runs_match_the_edge_by_edge_merge(shape, generations):
    for n in generations:
        t = build_Tn(shape, n)
        want = ref_fault_runs(t)
        assert fault_runs(t) == want, n
        assert n < 4 or want    # the deeper tilings do have fault runs


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 64])
def test_fault_runs_in_small_batches_match_the_merge(monkeypatch, batch):
    # batches of whole directions and of whole lines: a batch smaller than
    # a direction, and than a line, runs alone
    monkeypatch.setattr(render, "JSON_CHUNK_TILES", batch)
    for shape, n in ((shape_from_pq(1, 2), 8), (shape_from_pq(1, 1), 4),
                     (shape_from_theta(1.0), 20)):
        t = build_Tn(shape, n)
        assert fault_runs(t) == ref_fault_runs(t), (shape, n)


def test_fault_runs_hold_a_batch_not_the_tiling(til12):
    # p/q = 1/2 T_9 (7,589 tiles): the traced peak was 479 bytes a tile
    # when every step ran on all 22,767 sides at once, and is 258 with
    # batches of JSON_CHUNK_TILES sides
    t = build_Tn(til12, 9)
    tracemalloc.start()
    try:
        fault_runs(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * len(t)


@pytest.mark.parametrize("color,faults", [("size", True), ("phi", False),
                                          ("phi", True)])
def test_svg_chunks_join_to_the_document(til12_T6, color, faults):
    whole = render_svg(til12_T6, color, faults)
    for chunk in (1, 7, 1 << 14):
        pieces = list(svg_chunks(til12_T6, color, faults, chunk))
        assert "".join(pieces) == whole
        assert pieces[1].count("<polygon") == min(chunk, len(til12_T6))


def _moved(t, ox, oy):
    columns = {name: getattr(t, name) for name in
               ("handedness", "phi", "ox", "oy", "i", "j", "ids", "parent")}
    return Tiling.from_columns(t.shape, t.generation,
                               {**columns, "ox": ox.copy(), "oy": oy.copy()})


def test_vertices_out_of_range_raise_argument_error(til12):
    t = build_Tn(til12, 3)
    ox, oy = t.ox.copy(), t.oy.copy()
    ox[1] = np.inf
    with pytest.raises(ArgumentError):
        render_svg(_moved(t, ox, oy))
    with pytest.raises(ArgumentError):
        fault_runs(_moved(t, ox, oy))
    # finite corners, but a box too wide for a float
    ox[1], ox[2] = 1e308, -1e308
    with pytest.raises(ArgumentError):
        render_svg(_moved(t, ox, oy))
    # finite box, but past the fault tolerance's float range
    ox[1], ox[2], oy[1] = 0.0, 0.0, 1e308
    assert render_svg(_moved(t, ox, oy)).startswith("<svg")
    with pytest.raises(ArgumentError):
        fault_runs(_moved(t, ox, oy))
