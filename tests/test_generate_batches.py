"""generate writes T_n a batch at a time: the same bytes as the text of
the whole tiling, the same cap and near-tie refusals before any text, and
a working set of one batch."""

import os
import re
import tracemalloc

import pytest

from tilelab import substitution
from tilelab.cli import main
from tilelab.errors import InternalError, ResourceError
from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.substitution import (COLUMNS, JSON_CHUNK_TILES, Tn_batches, _batches,
                                  _schedule, build_Tn, deflate, root_tiling,
                                  tiling_json_chunks)

# 2/1 and 1/3 have mirrored daughters; theta = 1.0 is irrational
CASES = {
    "1/2": (["--pq", "1/2"], shape_from_pq(1, 2), 10),
    "2/1": (["--pq", "2/1"], shape_from_pq(2, 1), 6),
    "1/3": (["--pq", "1/3"], shape_from_pq(1, 3), 12),
    "theta=1.0": (["--theta", "1.0"], shape_from_theta(1.0), 40),
}


def _whole(shape, n, cap=None):
    """T_n by deflating the whole tiling n times, each deflation finding
    its own winners and first id."""
    t = root_tiling(shape)
    for _ in range(n):
        t = deflate(t, cap=cap)
    return t


@pytest.fixture(scope="module")
def whole():
    return {name: _whole(shape, n) for name, (_, shape, n) in CASES.items()}


@pytest.mark.parametrize("rows", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_batches_write_the_text_of_the_whole_tiling(whole, name, rows):
    _, shape, n = CASES[name]
    want = whole[name]
    batches = list(_batches(shape, _schedule(shape, n, None)[0], rows) if rows
                   else Tn_batches(shape, n))
    size = rows or 2 * JSON_CHUNK_TILES
    assert all(0 < len(b) <= size for b in batches)
    assert all(b.generation == n for b in batches)
    for col, _ in COLUMNS:
        got = [getattr(b, col) for b in batches]
        assert b"".join(c.tobytes() for c in got) == getattr(want, col).tobytes(), col
    text = "".join(tiling_json_chunks(want))
    assert "".join(tiling_json_chunks(batches)) == text
    assert "".join(tiling_json_chunks(build_Tn(shape, n))) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_generate_writes_the_text_of_the_whole_tiling(whole, name, capsys):
    argv, shape, n = CASES[name]
    assert main(["generate", *argv, "--n", str(n)]) == 0
    assert capsys.readouterr().out == "".join(tiling_json_chunks(whole[name]))
    if name in ("2/1", "1/3"):
        assert (whole[name].handedness < 0).any()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_cap_refuses_at_the_same_generation(whole, name, tmp_path, capsys,
                                                 monkeypatch):
    argv, shape, n = CASES[name]
    cap = len(whole[name]) - 1          # T_n is one tile over, T_(n-1) fits
    with pytest.raises(ResourceError) as refusal:
        _whole(shape, n, cap)
    message = str(refusal.value)
    assert message == f"deflation would produce {len(whole[name])} tiles, cap is {cap}"
    # refused when the batches are asked for, before the first is built
    with pytest.raises(ResourceError, match=re.escape(message)):
        Tn_batches(shape, n, cap)
    with pytest.raises(ResourceError, match=re.escape(message)):
        build_Tn(shape, n, cap)
    assert len(list(Tn_batches(shape, n - 1, cap))[0]) > 0
    monkeypatch.setenv("TILELAB_MAX_TILES", str(cap))
    out = tmp_path / "t.json"
    assert main(["generate", *argv, "--n", str(n), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_generate_holds_a_batch_not_the_tiling():
    # p/q = 1/2 T_13 (325,525 tiles): building the whole tiling and then its
    # text peaked at 41.8 MB traced; a batch at a time it is 4.5 MB, about
    # the same at T_12 and T_14
    main(["generate", "--pq", "1/2", "--n", "4", "--out", os.devnull])
    tracemalloc.start()
    try:
        assert main(["generate", "--pq", "1/2", "--n", "13", "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than half of the tiling's own columns (41 bytes a tile)
    assert peak < 41 * 325_525 / 2


def test_a_near_tie_refuses_before_any_text(tmp_path, capsys, monkeypatch):
    # theta = 1.0 reaches a pair of classes 0.05 apart at generation 22
    monkeypatch.setattr(substitution, "NEAR_TIE", 0.05)
    with pytest.raises(InternalError, match="nearly tie"):
        Tn_batches(shape_from_theta(1.0), 30)
    out = tmp_path / "t.json"
    assert main(["generate", "--theta", "1.0", "--n", "30", "--out", str(out)]) == 4
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("internal error: distinct exponent classes")
    assert not out.exists()
