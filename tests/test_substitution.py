import math

import pytest

from tilelab import substitution
from tilelab.cli import main
from tilelab.errors import ArgumentError, InternalError, ResourceError
from tilelab.geometry import shape_from_pq, tile_area, vertices
from tilelab.substitution import (COLUMNS, Tiling, build_Tn, census_counts,
                                  census_steps, deflate, grow_supertile,
                                  root_tiling, subdivide, tiling_from_json,
                                  tiling_to_json, trace_edge)


def test_subdivision_preserves_area(five_shapes):
    for shape in five_shapes.values():
        parent = root_tiling(shape).tiles[0]
        daughters = subdivide(parent)
        assert len(daughters) == 5
        total = sum(tile_area(d) for d in daughters)
        assert total == pytest.approx(tile_area(parent), rel=1e-12)


def test_subdivision_orientation_multiset(five_shapes):
    """Each parent spawns {R_t P x2, R_t, R_{t+pi}, R_{t+pi/2} P}."""
    for shape in five_shapes.values():
        th = shape.theta
        daughters = subdivide(root_tiling(shape).tiles[0])
        got = sorted((d.placement.handedness,
                      round(d.placement.phi % (2.0 * math.pi), 9))
                     for d in daughters)
        want = sorted([
            (-1, round(th, 9)),
            (-1, round(th, 9)),
            (1, round(th, 9)),
            (1, round((th + math.pi) % (2.0 * math.pi), 9)),
            (-1, round(th + math.pi / 2.0, 9)),
        ])
        assert got == want


def test_daughters_cover_without_overlap(five_shapes):
    for shape in five_shapes.values():
        build_Tn(shape, 1).validate_cover(samples_per_tile=200)


@pytest.mark.parametrize("samples", range(-1, 7))
def test_validate_cover_samples_at_least_the_centroid(til12, samples):
    t3 = build_Tn(til12, 3)
    if samples < 0:
        with pytest.raises(ArgumentError):
            t3.validate_cover(samples_per_tile=samples)
        return
    t3.validate_cover(samples_per_tile=samples)
    # a tile moved onto a congruent sibling keeps the area sum but overlaps
    rows = list(t3.rows())
    hit = next(k for k, r in enumerate(rows[1:], 1) if r[4:6] == rows[0][4:6])
    rows[hit] = rows[0][:6] + rows[hit][6:]
    columns = {name: col for (name, _), col in zip(COLUMNS, zip(*rows))}
    overlapping = Tiling(til12, 3, columns)
    if samples:
        with pytest.raises(InternalError, match="overlaps"):
            overlapping.validate_cover(samples_per_tile=samples)
    else:
        overlapping.validate_cover()


def test_census_til12(til12):
    t2 = build_Tn(til12, 2)
    assert len(t2) == 9
    assert t2.exponent_counts() == {(0, 1): 4, (1, 1): 4, (2, 0): 1}


def test_census_til2(til2):
    t2 = build_Tn(til2, 2)
    assert len(t2) == 21
    assert t2.exponent_counts() == {(1, 0): 1, (1, 1): 4, (0, 2): 16}


def test_census_pinwheel(pinwheel):
    # every tile subdivides every generation: 5^n tiles
    assert len(build_Tn(pinwheel, 2)) == 25
    assert len(build_Tn(pinwheel, 3)) == 125


def test_census_counts_match_geometry(five_shapes):
    for shape in five_shapes.values():
        for n in (0, 1, 3, 5):
            counts, _ = census_counts(shape, n)
            assert counts == build_Tn(shape, n).exponent_counts()


def test_census_steps_min_pair_is_the_cut(til12):
    for gen, counts, min_pair in census_steps(til12, 6):
        key = til12.size_key(*min_pair)
        assert all(til12.size_key(i, j) >= key for (i, j) in counts)
        assert min_pair in counts


def test_deflate_only_touches_minimal_tiles(til12):
    t2 = build_Tn(til12, 2)
    t3 = deflate(t2)
    cut = min(til12.size_key(*t.placement.size_exp) for t in t2.tiles)
    survivors = {t.id for t in t2.tiles
                 if til12.size_key(*t.placement.size_exp) > cut}
    assert survivors <= {t.id for t in t3.tiles}
    assert len(t3) == len(t2) + 4 * sum(
        1 for t in t2.tiles
        if til12.size_key(*t.placement.size_exp) == cut)


def test_deflate_refuses_an_empty_tiling(til12):
    with pytest.raises(ArgumentError, match="empty tiling"):
        deflate(Tiling(til12, 0, {name: [] for name, _ in COLUMNS}))


def test_tile_cap(pinwheel):
    with pytest.raises(ResourceError):
        build_Tn(pinwheel, 10, cap=1000)


def test_tile_cap_refuses_before_any_generation(monkeypatch, capsys):
    # T_17 of p/q = 1/2 would hold 14,007,941 tiles and T_16 5.5 M: the
    # census counts them, so neither is built
    def build(*args, **kwargs):
        raise AssertionError("a generation was built")

    monkeypatch.setattr(substitution, "deflate", build)
    with pytest.raises(ResourceError) as exc:
        build_Tn(shape_from_pq(1, 2), 17)
    assert str(exc.value) == "deflation would produce 14007941 tiles, cap is 10000000"
    monkeypatch.setenv("TILELAB_MAX_TILES", "1000")
    assert main(["generate", "--pq", "1/2", "--n", "17"]) == 3
    assert capsys.readouterr().err == \
        "error: deflation would produce 1165 tiles, cap is 1000\n"


def test_json_round_trip(til12):
    t = build_Tn(til12, 3)
    back = tiling_from_json(tiling_to_json(t))
    assert len(back) == len(t)
    assert back.generation == t.generation
    for orig, copy in zip(t.tiles, back.tiles):
        assert copy.placement.size_exp == orig.placement.size_exp
        assert copy.placement.handedness == orig.placement.handedness
        for pv, qv in zip(vertices(orig), vertices(copy)):
            assert qv == pytest.approx(pv, abs=1e-12)


def _tiling_doc(edit):
    data = tiling_to_json(build_Tn(shape_from_pq(1, 2), 2))
    edit(data)
    return data


@pytest.mark.parametrize("edit", [
    lambda d: d.update(format="tilelab-tiling/0"),
    lambda d: d.pop("shape"),
    lambda d: d.pop("generation"),
    lambda d: d.pop("tiles"),
    lambda d: d.update(tiles=[]),
    lambda d: d.update(generation=1.5),
    lambda d: d["shape"].update(theta="1"),
    lambda d: d["shape"].update(rationality={"p": 1}),
    lambda d: d["tiles"][3].pop("phi"),
    lambda d: d["tiles"].append(7),
    lambda d: d["tiles"][3].update(i=1.0),
    lambda d: d["tiles"][3].update(j=-1),
    lambda d: d["tiles"][3].update(id="4"),
    lambda d: d["tiles"][3].update(parent=-1),
    lambda d: d["tiles"][3].update(handedness=0),
    lambda d: d["tiles"][3].update(handedness=True),
    lambda d: d["tiles"][3].update(phi=float("nan")),
    lambda d: d["tiles"][3].update(origin=[0.5, float("inf")]),
    lambda d: d["tiles"][3].update(origin=[0.5]),
    lambda d: d["tiles"][3].update(origin=None),
])
def test_tiling_from_json_rejects_malformed_input(edit):
    with pytest.raises(ArgumentError):
        tiling_from_json(_tiling_doc(edit))


def test_tiling_from_json_rejects_non_objects():
    for data in ([], None, "tilelab-tiling/1"):
        with pytest.raises(ArgumentError):
            tiling_from_json(data)


def test_trace_edge_covers_the_hypotenuse(til12):
    t = build_Tn(til12, 4)
    segs = trace_edge(t, "hypotenuse")
    assert segs
    # segments tile [0, c] without gaps
    assert segs[0].position == pytest.approx(0.0, abs=1e-9)
    end = segs[-1].position + segs[-1].length
    assert end == pytest.approx(til12.c, rel=1e-12)
    for prev, cur in zip(segs, segs[1:]):
        assert cur.position == pytest.approx(prev.position + prev.length,
                                             abs=1e-9)


def test_trace_edge_rejects_unknown_edge(til12):
    with pytest.raises(ArgumentError):
        trace_edge(build_Tn(til12, 2), "diagonal")


def test_grow_supertile_chain(supertile_orders):
    for shape, choices, orders in supertile_orders:
        chain = grow_supertile(shape, choices)
        assert chain.orders == orders
        assert len(chain.levels) == len(choices)
        # each level holds T_order, and the anchor's similarity places the
        # chosen tile of T_{n_i} in it
        for (tiling, sim), order, (n_i, pos) in zip(chain.levels, orders, choices):
            assert tiling.generation == order
            assert sim == build_Tn(shape, n_i).tiles[pos].similarity()


def test_grow_supertile_index_check(til12):
    with pytest.raises(ArgumentError):
        grow_supertile(til12, [(1, 99)])
