"""The fault pass on direction ids and single-key sorts against the pass it
replaced (float angles per side, np.lexsort groupings), kept here as the
reference: both must give the same runs, bit for bit."""

import io
import math
import sys

import numpy as np
import pytest

from tilelab import render
from tilelab.errors import ArgumentError
from tilelab.geometry import cos_sin, shape_from_pq, shape_from_theta
from tilelab.reader import read_tiling
from tilelab.substitution import JSON_CHUNK_TILES, Tiling, build_Tn, tiling_json_chunks

# -- reference ------------------------------------------------------------------


def ref_sorted_groups(*keys):
    order = np.lexsort(keys)
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for col in keys:
        col = col[order]
        fresh[1:] |= col[1:] != col[:-1]
    return order, fresh


def ref_line_angles(dy, dx):
    order, fresh = ref_sorted_groups(dx.view(np.int64), dy.view(np.int64))
    first = order[fresh]
    ang = np.array([math.atan2(y, x) % math.pi for y, x in
                    zip(dy[first].tolist(), dx[first].tolist())], dtype=np.float64)
    ang[ang > math.pi - 1e-12] = 0.0
    out = np.empty_like(ang, shape=len(order))
    out[order] = ang[np.cumsum(fresh) - 1]
    return out


def ref_distinct_per_run(run, runs, *keys):
    order, fresh = ref_sorted_groups(*keys, run)
    return np.bincount(run[order][fresh], minlength=runs)


def ref_batches(starts, size, chunk):
    bounds = np.append(starts, size)
    start = 0
    while start < size:
        at = np.searchsorted(bounds, start + chunk, side="right") - 1
        stop = int(bounds[at] if bounds[at] > start else bounds[at + 1])
        yield start, stop
        start = stop


def ref_line_runs(t, sides, off, lo, hi, line, ang, tol):
    line = line - line[0]
    ref = np.flatnonzero(np.diff(line, prepend=-1))
    along = np.lexsort((hi, lo, line))
    line, lo, hi, parent = line[along], lo[along], hi[along], t.parent[sides[along] // 3]
    lo_key = np.rint(lo / tol) + 0.0
    hi_key = np.rint(hi / tol) + 0.0
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
    edges = ref_distinct_per_run(run, len(first), lo_key, hi_key)
    parents = ref_distinct_per_run(run, len(first), parent)
    keep = (edges >= 2) & (parents >= 2)
    k = ref[line[first[keep]]]
    (u, v), d = cos_sin(ang[sides[k]]), off[k]
    bottom, top = lo[first[keep]], reach[last[keep]]
    return (np.column_stack((-v * d + u * bottom, u * d + v * bottom,
                             -v * d + u * top, u * d + v * top)),
            edges[keep], parents[keep])


def ref_direction_runs(t, sides, heads, ang, tol, chunk):
    a = ang[sides]
    off, lo, hi = np.empty((3, len(sides)))
    for b in range(0, len(sides), chunk):
        part = slice(b, b + chunk)
        ux, uy = cos_sin(a[part])
        near = sides[part] % 3
        (sx, sy), (ex, ey) = t.vertex_columns(sides[part] // 3, (near, (near + 1) % 3))
        off[part] = sx * (-uy) + sy * ux
        t0 = sx * ux + sy * uy
        t1 = ex * ux + ey * uy
        lo[part] = np.where(t0 > t1, t1, t0)
        hi[part] = np.where(t0 > t1, t0, t1)
    direction = np.searchsorted(heads, a, side="right")
    order = np.lexsort((a, off, direction))
    sides, off, lo, hi, direction = (v[order] for v in (sides, off, lo, hi, direction))
    starts = np.flatnonzero(np.diff(direction, prepend=-1)
                            | (np.diff(off, prepend=-math.inf) > tol))
    return [ref_line_runs(t, sides[b:e], off[b:e], lo[b:e], hi[b:e],
                          np.searchsorted(starts, np.arange(b, e), side="right"),
                          ang, tol) for b, e in ref_batches(starts, len(sides), chunk)]


def ref_fault_columns(t, box, chunk=JSON_CHUNK_TILES):
    """The fault pass that held a float64 angle per side, the full-size
    np.unique of them and a full-size mask per batch of directions."""
    pairs, _ = t.exponent_pairs()
    tol = 1e-7 * (t.shape.c * max(t.shape.scale(i, j) for i, j in pairs))
    if not (tol > 0.0 and 4.0 * max(map(abs, box)) <= tol * sys.float_info.max):
        raise ArgumentError("tile coordinates are too large for the fault "
                            f"tolerance {tol!r}")
    ang = np.empty(3 * len(t))
    for lo in range(0, len(t), chunk):
        xs, ys = zip(*t.vertex_columns(slice(lo, lo + chunk)))
        dx = np.column_stack(xs[1:] + xs[:1]) - np.column_stack(xs)
        dy = np.column_stack(ys[1:] + ys[:1]) - np.column_stack(ys)
        ang[3 * lo:3 * lo + dx.size] = ref_line_angles(dy.ravel(), dx.ravel())
    vals, counts = np.unique(ang, return_counts=True)
    groups = np.flatnonzero(np.diff(vals, prepend=-math.inf) > 1e-9)
    ranks = np.cumsum(counts) - counts
    runs = []
    for start, stop in ref_batches(ranks[groups], len(ang), chunk):
        lo, hi = vals[np.searchsorted(ranks, (start, stop)) - (0, 1)]
        runs += ref_direction_runs(t, np.flatnonzero((ang >= lo) & (ang <= hi)),
                                   vals[groups], ang, tol, chunk)
    return tuple(map(np.concatenate, zip(*runs)))


# -- tilings --------------------------------------------------------------------


def _tiling(shape, rows):
    names = ("handedness", "phi", "ox", "oy", "i", "j", "ids", "parent")
    return Tiling(shape, 0, dict(zip(names, map(list, zip(*rows)))))


def _mirrored_tile():
    return _tiling(shape_from_pq(1, 2), [(-1, 0.7, 0.25, -0.5, 0, 0, 0, -1)])


def _minus_zero_sides():
    # Two tiles share the side on y = 0 from x = 0 to b, one with offset 0.0
    # and one (mirrored, heading -0.0, origin y -0.0) with offset -0.0, and
    # a third carries the line on.  Three mirrored tiles at heading 5.5 put
    # sides on one line from (0.0, -0.0), offset 0.0 and end -0.0 along it,
    # and from (0.0, 0.0), offset -0.0 and end 0.0: a run ends at the last
    # of the two equal ends, which its end point's sign shows.
    shape = shape_from_pq(1, 2)
    return _tiling(shape, [
        (1, 0.0, 0.0, 0.0, 0, 0, 1, 0),
        (-1, -0.0, 0.0, -0.0, 0, 0, 2, 5),
        (1, 0.0, shape.b, 0.0, 0, 0, 3, 6),
        (-1, -0.0, shape.b, -0.0, 0, 0, 4, 7),
        (-1, 5.5, 0.0, -0.0, 0, 0, 5, 10),
        (-1, 5.5, 0.0, -0.0, 1, 0, 6, 11),
        (-1, 5.5, 0.0, 0.0, 1, 0, 7, 12),
    ])


CASES = {
    **{f"pq12-T{n}": (lambda n=n: build_Tn(shape_from_pq(1, 2), n)) for n in range(6, 12)},
    "pq25-T22": lambda: build_Tn(shape_from_pq(2, 5), 22),
    "pq21-T7": lambda: build_Tn(shape_from_pq(2, 1), 7),
    "pq13-T12": lambda: build_Tn(shape_from_pq(1, 3), 12),
    "theta1-T40": lambda: build_Tn(shape_from_theta(1.0), 40),
    "json-pq12-T9": lambda: read_tiling(io.StringIO("".join(tiling_json_chunks(
        build_Tn(shape_from_pq(1, 2), 9))))),
    "mirrored-tile": _mirrored_tile,
    "minus-zero": _minus_zero_sides,
}


def _bits(columns):
    return [(c.dtype.str, c.shape, np.ascontiguousarray(c).tobytes()) for c in columns]


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_columns_match_the_reference_bit_for_bit(case):
    t = CASES[case]()
    box = render._bounding_box(t)
    got = render._fault_columns(t, box)
    assert _bits(got) == _bits(ref_fault_columns(t, box))
    assert case in ("mirrored-tile", "minus-zero") or len(got[0])


def test_the_minus_zero_tiling_has_zeros_of_both_signs():
    t = _minus_zero_sides()
    (x0, y0), (x1, y1) = t.vertex_columns(slice(None), (0, 1))
    # side 0 of the first four tiles lies on y = 0, with both signs of zero
    assert (y1[:4] == 0.0).all() and (y0[:4] == 0.0).all()
    assert set(np.signbit(y0[:4]).tolist()) == {False, True}
    # and a run ends at -0.0, the sign that the end 0.0 of the last of the
    # two equal sides gives there
    ends = render._fault_columns(t, render._bounding_box(t))[0]
    assert ends[-1, 2] == 0.0 and np.signbit(ends[-1, 2])


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_small_batches_match_the_reference(monkeypatch, chunk):
    monkeypatch.setattr(render, "JSON_CHUNK_TILES", chunk)
    for shape, n in ((shape_from_pq(1, 2), 7), (shape_from_theta(1.0), 20)):
        t = build_Tn(shape, n)
        box = render._bounding_box(t)
        assert _bits(render._fault_columns(t, box)) == \
            _bits(ref_fault_columns(t, box, chunk)), (shape, n)


def test_codes_order_rows_as_their_key_tuples():
    # keys whose codes would pass int64 are ranked first
    rng = np.random.default_rng(5)
    keys = [rng.integers(-2**62, 2**62, 500), rng.integers(0, 3, 500),
            rng.integers(-2**40, 2**40, 500), np.arange(500)]
    for k in range(1, len(keys) + 1):
        code = render._code(*keys[-k:])
        assert (np.argsort(code, kind="stable") == np.lexsort(keys[::-1][:k])).all()
