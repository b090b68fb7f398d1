"""The column tiling core against the per-tile versions it replaced,
which are kept here as references."""

import json
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab.classify import verify_orientation_count
from tilelab.geometry import (Placement, Tile, shape_from_pq, shape_from_theta,
                              vertices, wrap_angle)
from tilelab.render import _Run, fault_runs, svg_chunks
from tilelab.stats import (_size_histogram_from_counts, orientation_histogram,
                           size_histogram)
from tilelab import render, substitution
from collections import Counter

from tilelab.errors import InternalError, ResourceError
from tilelab.substitution import (COLUMNS, JSON_CHUNK_TILES, build_Tn, deflate, root_tiling,
                                  Tiling, TraceSegment, census_counts, census_steps,
                                  grow_supertile, round12, subdivide,
                                  tiling_from_json, tiling_json_chunks,
                                  tiling_to_json, trace_edge)

MAX_TILES = 1500
COPRIME = [(p, q) for p in range(1, 7) for q in range(1, 7) if math.gcd(p, q) == 1]


# -- references ---------------------------------------------------------------


def ref_subdivide(tile, first_id):
    shape = tile.shape
    parent_sim = tile.similarity()
    hand = tile.placement.handedness
    i, j = tile.placement.size_exp
    out = []
    for offset, frame in enumerate(shape.daughter_frames()):
        placement = Placement(
            handedness=hand * frame.handedness,
            phi=wrap_angle(tile.placement.phi + hand * frame.phi(shape.theta)),
            origin=parent_sim.apply(frame.origin),
            size_exp=(i + frame.exp_delta[0], j + frame.exp_delta[1]),
        )
        out.append(Tile(shape=shape, placement=placement,
                        id=first_id + offset, parent=tile.id))
    return out


def ref_min_key_pairs(shape, pairs):
    """Key every pair, sort, check every adjacent pair for a near tie, and
    return the pairs of minimal key."""
    keyed = sorted(((shape.size_key(i, j), (i, j)) for i, j in pairs),
                   key=lambda kv: kv[0])
    keys = [k for k, _ in keyed]
    for prev, cur in zip(keys, keys[1:]):
        if cur != prev and float(cur - prev) < substitution.NEAR_TIE:
            raise InternalError("near tie")
    return {pair for key, pair in keyed if key == keys[0]}


def ref_build(shape, n):
    """T_n as a list of Tile objects, deflated one subdivide call per tile."""
    tiles = [Tile(shape, Placement(1, 0.0, (0.0, 0.0), (0, 0)), 0, None)]
    next_id = 1
    for _ in range(n):
        winners = ref_min_key_pairs(shape, {t.placement.size_exp for t in tiles})
        new = []
        for t in tiles:
            if t.placement.size_exp in winners:
                new.extend(ref_subdivide(t, next_id))
                next_id += 5
            else:
                new.append(t)
        tiles = new
    return tiles


def ref_json_text(shape, generation, tiles):
    data = {
        "format": "tilelab-tiling/1",
        "shape": shape.to_json(),
        "generation": generation,
        "tiles": [{"id": t.id, "parent": t.parent,
                   "handedness": t.placement.handedness, "phi": t.placement.phi,
                   "origin": [t.placement.origin[0], t.placement.origin[1]],
                   "i": t.placement.size_exp[0], "j": t.placement.size_exp[1]}
                  for t in tiles],
    }
    return json.dumps(round12(data), sort_keys=True, indent=1) + "\n"


def _cluster(values, tol):
    groups, cur, prev = [], [], None
    for val, payload in values:
        if prev is not None and val - prev > tol:
            groups.append(cur)
            cur = []
        cur.append((val, payload))
        prev = val
    if cur:
        groups.append(cur)
    return groups


def ref_fault_runs(shape, tiles):
    """The per-edge Python grouping and merge of fault runs."""
    if not tiles:
        return []
    scale = shape.c * max(shape.scale(i, j) for i, j in
                          {t.placement.size_exp for t in tiles})
    tol = 1e-7 * scale
    entries = []
    for tile in tiles:
        sa, ra, ov, _ = vertices(tile)
        for p, q in ((sa, ra), (ra, ov), (ov, sa)):
            ang = math.atan2(q[1] - p[1], q[0] - p[0]) % math.pi
            if ang > math.pi - 1e-12:
                ang = 0.0
            ux, uy = math.cos(ang), math.sin(ang)
            off = p[0] * (-uy) + p[1] * ux
            entries.append((ang, off, p, q, (ux, uy), tile))
    entries.sort(key=lambda e: (e[0], e[1]))
    runs = []
    for ang_group in _cluster([(e[0], e) for e in entries], 1e-9):
        offs = sorted(((e[1], e) for _, e in ang_group), key=lambda x: x[0])
        for line_group in _cluster(offs, tol):
            segs = []
            for _, (ang, off, p, q, (ux, uy), tile) in line_group:
                t0 = p[0] * ux + p[1] * uy
                t1 = q[0] * ux + q[1] * uy
                if t0 > t1:
                    t0, t1 = t1, t0
                segs.append((t0, t1, tile))
            segs.sort(key=lambda s: (s[0], s[1]))
            cur, bucket, merged = None, [], []
            for t0, t1, tile in segs:
                if cur is None or t0 > cur[1] + tol:
                    if cur is not None:
                        merged.append((cur, bucket))
                    cur, bucket = [t0, t1], [(t0, t1, tile)]
                else:
                    cur[1] = max(cur[1], t1)
                    bucket.append((t0, t1, tile))
            if cur is not None:
                merged.append((cur, bucket))
            (ux, uy), off = line_group[0][1][4], line_group[0][1][1]
            for (lo, hi), bucket in merged:
                distinct = {(round(t0 / tol), round(t1 / tol)) for t0, t1, _ in bucket}
                parents = {tile.parent for _, _, tile in bucket}
                if len(distinct) >= 2 and len(parents) >= 2:
                    runs.append(_Run(start=(-uy * off + ux * lo, ux * off + uy * lo),
                                     end=(-uy * off + ux * hi, ux * off + uy * hi),
                                     edge_count=len(distinct),
                                     parent_count=len(parents)))
    return runs


def ref_size_counts(tiles):
    counts = {}
    for tile in tiles:
        counts[tile.placement.size_exp] = counts.get(tile.placement.size_exp, 0) + 1
    return counts


def ref_size_histogram(shape, tiles, weighting):
    return _size_histogram_from_counts(shape, ref_size_counts(tiles), weighting, 64)


def ref_orientation_histogram(rank_of, tiles, bins=64):
    cells, raw = {}, {}
    for tile in tiles:
        key = (rank_of[tile.placement.size_exp], tile.placement.handedness)
        b = int((tile.placement.phi / (2.0 * math.pi) + 1e-9) * bins) % bins
        raw.setdefault(key, np.zeros(bins))[b] += 1
    phi_bins = {}
    for key, arr in raw.items():
        cells[key] = float(arr.sum()) / len(tiles)
        phi_bins[key] = tuple((arr / arr.sum()).tolist())
    return cells, phi_bins


def ref_orientation_count(tiles, tol=1e-9):
    total = 0
    for hand in (1, -1):
        phis = sorted({t.placement.phi for t in tiles if t.placement.handedness == hand})
        if not phis:
            continue
        clusters = 1 + sum(1 for a, b in zip(phis, phis[1:]) if b - a > tol)
        if clusters > 1 and (phis[0] + 2.0 * math.pi) - phis[-1] <= tol:
            clusters -= 1
        total += clusters
    return total


def ref_trace_edge(tiling, edge):
    """The per-tile edge trace: every side of every Tile tested in turn."""
    shape = tiling.shape
    p0, p1 = substitution._root_edge(shape, edge)
    ex, ey = p1[0] - p0[0], p1[1] - p0[1]
    total = math.hypot(ex, ey)
    ux, uy = ex / total, ey / total
    tol = 1e-9 * shape.c
    ranks = tiling.class_rank()

    found = []
    for t in tiling.tiles:
        s, c, o, _ = vertices(t)
        for kind, q0, q1 in (("H", s, o), ("L", s, c), ("S", c, o)):
            d0 = (q0[0] - p0[0], q0[1] - p0[1])
            d1 = (q1[0] - p0[0], q1[1] - p0[1])
            if abs(d0[0] * uy - d0[1] * ux) > tol:
                continue
            if abs(d1[0] * uy - d1[1] * ux) > tol:
                continue
            t0 = d0[0] * ux + d0[1] * uy
            t1 = d1[0] * ux + d1[1] * uy
            if min(t0, t1) < -tol or max(t0, t1) > total + tol:
                continue
            sign = 1 if t1 > t0 else -1
            found.append((min(t0, t1), abs(t1 - t0), t.id, kind, sign,
                          ranks[t.placement.size_exp]))
    found.sort()
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


def ref_descendant_pattern(tiles, ids, anchor):
    """Relative (exponents, pose) rows of the tiles in ``ids`` seen from
    ``anchor``."""
    inv = anchor.similarity().inverse()
    ai, aj = anchor.placement.size_exp
    hand = anchor.placement.handedness
    rows = []
    for t in tiles:
        if t.id not in ids:
            continue
        i, j = t.placement.size_exp
        rel_phi = wrap_angle(hand * (t.placement.phi - anchor.placement.phi))
        ox, oy = inv.apply(t.placement.origin)
        rows.append((i - ai, j - aj, t.placement.handedness * hand,
                     rel_phi, ox, oy))
    rows.sort()
    return rows


def ref_pattern_of(tiles):
    rows = []
    for t in tiles:
        i, j = t.placement.size_exp
        rows.append((i, j, t.placement.handedness, t.placement.phi,
                     t.placement.origin[0], t.placement.origin[1]))
    rows.sort()
    return rows


def ref_patterns_match(rows_a, rows_b, tol):
    """Greedy matching with a tolerance (sorting noisy floats, or headings
    near the 0/2pi seam, would be order-unstable)."""
    if len(rows_a) != len(rows_b):
        return False
    unused = list(rows_b)
    for ra in rows_a:
        for idx, rb in enumerate(unused):
            if ra[:3] != rb[:3]:
                continue
            dphi = abs(ra[3] - rb[3])
            if min(dphi, 2.0 * math.pi - dphi) > tol:
                continue
            if abs(ra[4] - rb[4]) > tol or abs(ra[5] - rb[5]) > tol:
                continue
            unused.pop(idx)
            break
        else:
            return False
    return True


def ref_supertile_orders(shape, choices, max_extra=200):
    """grow_supertile's orders by deflating each later level until the
    anchor's descendants geometrically match the previous level's T_n."""
    orders = []
    for n_i, pos in choices:
        current = build_Tn(shape, n_i)
        if not orders:
            orders.append(n_i)
            continue
        anchor = current.tiles[pos]
        target = ref_pattern_of(build_Tn(shape, orders[-1]).tiles)
        ids, order = {anchor.id}, n_i
        for _ in range(max_extra):
            rows = ref_descendant_pattern(current.tiles, ids, anchor)
            if ref_patterns_match(rows, target, 1e-9 * shape.c):
                break
            current = deflate(current)
            order += 1
            ids |= {cid for cid, pid in zip(current.ids.tolist(),
                                            current.parent.tolist()) if pid in ids}
        else:
            raise InternalError("supertile search did not converge")
        orders.append(order)
    return orders


def ref_census_chain(shape, choices, cap=None):
    """grow_supertile's orders, levels and anchor similarities by deflating
    each later level's whole tiling until the anchor's descendants count,
    per exponent pair relative to the anchor's, as T_prev does."""
    orders, levels = [], []
    for n_i, pos in choices:
        current = build_Tn(shape, n_i, cap)
        anchor = current.tiles[pos]
        if orders:
            target = Counter(census_counts(shape, orders[-1])[0])
            ai, aj = anchor.placement.size_exp
            leaves = current.ids == anchor.id
            while True:
                counts = Counter(zip((current.i[leaves] - ai).tolist(),
                                     (current.j[leaves] - aj).tolist()))
                if counts == target:
                    break
                assert counts.total() < target.total()
                ids = current.ids[leaves]
                current = deflate(current, cap=cap)
                leaves = np.isin(current.ids, ids) | np.isin(current.parent, ids)
        orders.append(current.generation)
        levels.append((current, anchor.similarity()))
    return orders, levels


# -- helpers ------------------------------------------------------------------


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _row(tile):
    p = tile.placement
    return (p.handedness, _bits(p.phi), _bits(p.origin[0]), _bits(p.origin[1]),
            p.size_exp, tile.id, tile.parent)


def _capped_n(shape, n):
    """The largest generation <= n whose tiling has at most MAX_TILES tiles."""
    best = 0
    for gen, counts, _ in census_steps(shape, n):
        if sum(counts.values()) > MAX_TILES:
            break
        best = gen
    return best


_SHAPES = st.one_of(
    st.sampled_from(COPRIME).map(lambda pq: shape_from_pq(*pq)),
    st.integers(60, 120).map(lambda k: shape_from_theta(k / 100)),
)
_CASES = st.tuples(_SHAPES, st.integers(0, 40)).map(
    lambda c: (c[0], _capped_n(*c)))


# -- equivalence --------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(_CASES)
@example((shape_from_pq(1, 2), 8))
@example((shape_from_pq(1, 1), 3))
@example((shape_from_theta(1.0), 30))
def test_deflate_columns_match_the_subdivide_loop(case):
    shape, n = case
    tiling = build_Tn(shape, n)
    want = ref_build(shape, n)
    assert [_row(t) for t in tiling.tiles] == [_row(t) for t in want]
    assert tiling.phi.dtype == np.float64 and tiling.i.dtype == np.int32
    assert list(tiling.exponent_counts().items()) == \
        list(ref_size_counts(want).items())


@pytest.mark.parametrize("theta, tie", [(1.4, 0.02), (1.0, 0.05), (1.2, 0.05)])
def test_deflate_raises_a_near_tie_at_the_reference_generation(
        theta, tie, monkeypatch):
    # each tiling's exponent pairs hit the reference's near-tie check at
    # generation 2, 22 and 24 respectively; deflate must refuse there
    monkeypatch.setattr(substitution, "NEAR_TIE", tie)
    tiling = root_tiling(shape_from_theta(theta))
    for _ in range(40):
        try:
            ref_min_key_pairs(tiling.shape, tiling.exponent_pairs()[0])
        except InternalError:
            break
        tiling = deflate(tiling)
    else:
        pytest.fail("the reference found no near tie")
    with pytest.raises(InternalError, match="nearly tie"):
        deflate(tiling)


@settings(max_examples=25, deadline=None)
@given(_CASES, st.sampled_from([1, 7, JSON_CHUNK_TILES]))
@example((shape_from_pq(1, 2), 8), JSON_CHUNK_TILES)
def test_json_writer_matches_json_dumps(case, chunk):
    shape, n = case
    tiling = build_Tn(shape, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(substitution, "JSON_CHUNK_TILES", chunk)
        text = "".join(tiling_json_chunks(tiling))
    assert text == ref_json_text(shape, n, ref_build(shape, n))
    assert text == json.dumps(round12(tiling_to_json(tiling)), sort_keys=True,
                              indent=1) + "\n"
    back = tiling_from_json(json.loads(text))
    rows = json.loads(text)["tiles"]
    assert back.ids.tolist() == [r["id"] for r in rows]
    assert back.parent.tolist() == [-1 if r["parent"] is None else r["parent"]
                                    for r in rows]
    assert back.phi.tolist() == [r["phi"] for r in rows]
    assert back.ox.tolist() == [r["origin"][0] for r in rows]


@settings(max_examples=25, deadline=None)
@given(_CASES)
@example((shape_from_pq(1, 2), 8))
@example((shape_from_theta(1.0), 30))
def test_histograms_match_the_per_tile_loops(case):
    shape, n = case
    tiling = build_Tn(shape, n)
    tiles = ref_build(shape, n)
    for weighting in ("count", "area"):
        assert size_histogram(tiling, weighting) == \
            ref_size_histogram(shape, tiles, weighting)
    ori = orientation_histogram(tiling)
    cells, phi_bins = ref_orientation_histogram(tiling.class_rank(), tiles)
    assert list(ori.cells.items()) == list(cells.items())
    assert ori.phi_bins == phi_bins
    assert verify_orientation_count(tiling) == ref_orientation_count(tiles)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_orientation_histogram_batch_size_changes_nothing(monkeypatch, chunk):
    monkeypatch.setattr(substitution, "JSON_CHUNK_TILES", chunk)
    for shape, n, bins in ((shape_from_pq(1, 2), 8, 64), (shape_from_pq(1, 3), 6, 37),
                           (shape_from_theta(1.0), 20, 64)):
        tiling = build_Tn(shape, n)
        ori = orientation_histogram(tiling, bins)
        cells, phi_bins = ref_orientation_histogram(tiling.class_rank(),
                                                    ref_build(shape, n), bins)
        assert list(ori.cells.items()) == list(cells.items())
        assert list(ori.phi_bins.items()) == list(phi_bins.items())


def test_orientation_histogram_holds_a_chunk_not_the_tiling():
    # 126,881 tiles: binned all at once the peak is 7.2 MB, a chunk at a time 0.16 MB
    tiling = build_Tn(shape_from_pq(1, 2), 12)
    tiling.exponent_pairs()
    tracemalloc.start()
    try:
        orientation_histogram(tiling)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("shape,n", [(shape_from_pq(1, 2), 12),
                                     (shape_from_theta(1.0), 40)])
def test_exponent_pairs_are_in_the_order_of_the_class_census(shape, n):
    # render and deflate index the pairs of exponent_pairs, the histograms
    # read the census: both name the pairs in one order
    tiling = build_Tn(shape, n)
    pairs, index = tiling.exponent_pairs()
    assert list(tiling.exponent_counts().items()) == \
        list(zip(pairs, np.bincount(index).tolist()))


@settings(max_examples=20, deadline=None)
@given(_CASES)
@example((shape_from_pq(1, 2), 8))
@example((shape_from_theta(1.0), 30))
def test_fault_runs_match_the_python_grouping(case):
    shape, n = case
    assert fault_runs(build_Tn(shape, n)) == ref_fault_runs(shape, ref_build(shape, n))


def test_subdivide_matches_the_per_tile_rule():
    shape = shape_from_pq(1, 2)
    for tile in build_Tn(shape, 5).tiles:
        assert [_row(t) for t in subdivide(tile, first_id=1000)] == \
            [_row(t) for t in ref_subdivide(tile, 1000)]


def test_tile_view_builds_tiles_on_demand():
    tiling = build_Tn(shape_from_pq(1, 2), 2)
    view = tiling.tiles
    assert len(view) == len(tiling) == 9
    assert view[-1] == view[8] == list(view)[8]
    assert view[2:4] == list(view)[2:4]
    with pytest.raises(IndexError):
        view[9]
    with pytest.raises(ValueError):
        tiling.phi[0] = 1.0      # the columns are read-only


def test_a_tiling_leaves_the_callers_columns_writable():
    t = build_Tn(shape_from_pq(1, 2), 2)
    cols = {name: getattr(t, name).copy() for name, _ in COLUMNS}
    tiling = Tiling(t.shape, 2, cols)
    cols["phi"][0] = 1.0
    with pytest.raises(ValueError):
        tiling.phi[0] = 2.0


@pytest.mark.parametrize("zeros", [(0.0, -0.0, -0.0), (-0.0, 0.0, 0.0), ()])
def test_json_writer_keeps_signed_zeros(monkeypatch, zeros):
    shape = shape_from_pq(1, 2)
    rows = [(1, z, z, -z, 0, k, k, -1 if k == 0 else 0) for k, z in enumerate(zeros)]
    tiling = Tiling(shape, 0, {name: [r[c] for r in rows]
                               for c, (name, _) in enumerate(COLUMNS)})
    want = json.dumps(round12(tiling_to_json(tiling)), sort_keys=True,
                      indent=1) + "\n"
    monkeypatch.setattr(substitution, "JSON_CHUNK_TILES", 1)
    assert "".join(tiling_json_chunks(tiling)) == want


def _segment_bits(segs):
    return [(s.tile_id, s.kind, s.sign, s.length.hex(), s.size_class,
             s.position.hex()) for s in segs]


@pytest.mark.parametrize("tiling", [
    lambda: build_Tn(shape_from_pq(1, 2), 8),
    lambda: build_Tn(shape_from_pq(2, 1), 6),
    lambda: build_Tn(shape_from_pq(1, 3), 6),
    lambda: build_Tn(shape_from_theta(1.0), 30),
    lambda: tiling_from_json(json.loads("".join(
        tiling_json_chunks(build_Tn(shape_from_pq(1, 2), 6))))),
], ids=["1/2 T_8", "2/1 T_6", "1/3 T_6", "theta 1.0 T_30", "1/2 T_6 json"])
def test_trace_edge_columns_match_the_per_tile_loop(tiling):
    tiling = tiling()
    for edge in ("hypotenuse", "long", "short"):
        segs = trace_edge(tiling, edge)
        assert segs
        assert _segment_bits(segs) == _segment_bits(ref_trace_edge(tiling, edge))


def test_grow_supertile_stops_where_the_greedy_matcher_does(supertile_orders):
    for shape, choices, orders in supertile_orders:
        assert grow_supertile(shape, choices).orders == orders == \
            ref_supertile_orders(shape, choices)


def _random_chains(seed, count):
    rng = random.Random(seed)
    shapes = [shape_from_pq(p, q) for p, q in
              ((1, 2), (2, 1), (1, 3), (3, 5), (2, 3), (5, 2), (1, 4))]
    shapes += [shape_from_theta(t) for t in (0.7, 1.0, 1.1)]
    for _ in range(count):
        shape = rng.choice(shapes)
        choices = []
        for _ in range(rng.randint(2, 3)):
            n = rng.randint(0, 5)
            choices.append((n, rng.randrange(sum(census_counts(shape, n)[0].values()))))
        yield shape, choices


def _chain_bytes(grow, shape, choices):
    """The orders and, as bytes, the levels of a chain, or the message of
    its tile-cap refusal."""
    try:
        orders, levels = grow(shape, choices, cap=200_000)
    except ResourceError as refusal:
        return str(refusal)
    return orders, [(t.generation, [getattr(t, name).tobytes() for name, _ in COLUMNS],
                     sim) for t, sim in levels]


@pytest.mark.parametrize("seed", range(4))
def test_grow_supertile_follows_the_census_as_deflating_does(seed, supertile_orders):
    chains = list(_random_chains(seed, 12))
    if seed == 0:
        chains += [(shape, choices) for shape, choices, _ in supertile_orders]
    outcomes = [_chain_bytes(grow_supertile, shape, choices) for shape, choices in chains]
    assert outcomes == [_chain_bytes(ref_census_chain, shape, choices)
                        for shape, choices in chains]
    assert sum(isinstance(got, tuple) for got in outcomes) >= 9


@pytest.mark.parametrize("over", [9, 10], ids=["before the order", "at the order"])
def test_a_chain_past_the_tile_cap_refuses_as_deflating_does(over):
    # 1/2 [(3, 0), (3, 5), (4, 2)] reaches order 11; the cap lets T_(over - 1)
    # through, so the third level's walk (over = 9) or its T_11 (over = 10)
    # is the first thing over it
    shape, choices = shape_from_pq(1, 2), [(3, 0), (3, 5), (4, 2)]
    cap = len(build_Tn(shape, over - 1))
    with pytest.raises(ResourceError) as refusal:
        ref_census_chain(shape, choices, cap)
    assert str(refusal.value) == \
        f"deflation would produce {len(build_Tn(shape, over))} tiles, cap is {cap}"
    with pytest.raises(ResourceError) as refusal_now:
        grow_supertile(shape, choices, cap)
    assert str(refusal_now.value) == str(refusal.value)


def test_the_library_reads_tilings_only_as_columns(monkeypatch):
    def refuse(self, *index):
        raise AssertionError("a library function read Tiling.tiles")

    monkeypatch.setattr(substitution._TileView, "__iter__", refuse)
    monkeypatch.setattr(substitution._TileView, "__getitem__", refuse)
    shape = shape_from_pq(1, 2)
    tiling = deflate(build_Tn(shape, 5))
    for edge in ("hypotenuse", "long", "short"):
        trace_edge(tiling, edge)
    tiling.validate_cover(samples_per_tile=6)
    grow_supertile(shape, [(2, 3), (2, 1)])
    size_histogram(tiling)
    orientation_histogram(tiling)
    "".join(svg_chunks(tiling, faults=True))
    "".join(tiling_json_chunks(tiling))
    with pytest.raises(AssertionError, match="read Tiling.tiles"):
        list(tiling.tiles)
    with pytest.raises(AssertionError, match="read Tiling.tiles"):
        tiling.tiles[0]


def _awkward_floats():
    rng = np.random.default_rng(12)
    bits = rng.integers(-2**63, 2**63 - 1, 20000, dtype=np.int64, endpoint=True)
    picked = [0.0, -0.0, 1.0, -3.0, 0.5, 1e-4, 9.99999999999e-5, 123456789012.0,
              999999999999.5, 1e12, 1.5e15, 1e16, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, math.pi, 2 * math.pi, math.inf, -math.inf]
    values = np.concatenate([bits.view(np.float64), picked,
                             rng.uniform(-4.0, 4.0, 5000), rng.integers(-9, 9, 100)])
    return values[~np.isnan(values)]        # no tiling holds one


def test_json_floats_are_the_text_of_round12():
    values = _awkward_floats()
    assert substitution._json_floats(values) == \
        [repr(float(f"{v:.12g}")) for v in values.tolist()]


def test_svg_floats_are_the_text_of_fmt():
    values = _awkward_floats()
    assert render._fmts(values) == [render._fmt(v) for v in values.tolist()]
