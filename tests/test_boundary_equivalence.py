"""The vectorized boundary engine against the straightforward versions it
replaced, which are kept here as references."""

import functools
import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab import boundary
from tilelab.boundary import (TIL2, TIL12, _avoids_forbidden,
                              _block_layout, _Layout, _letter_counts,
                              _nearest_offsets, _nth, _running_sums,
                              _sign_quad, forbidden_subwords_check, iterate,
                              sigma0_til12, sigma_til12, slippage_til12,
                              til2_rule, til13_offsets, til13_rule)
from tilelab.errors import InternalError, ResourceError

RULES = [sigma0_til12(), sigma_til12(), til2_rule(), til13_rule()]
DEFAULT_CHUNK = inspect.signature(_nearest_offsets).parameters["chunk"].default
DEFAULT_DEPTH = inspect.signature(_block_layout).parameters["k"].default
WHOLE = 99   # k >= n: the skeleton is H, and its one block the whole word
DEPTHS = (1, 3, DEFAULT_DEPTH, WHOLE)   # many small blocks, a few long ones, or one
DEFAULT_SLICE = inspect.signature(_avoids_forbidden).parameters["size"].default
SLICES = (DEFAULT_SLICE, 1, 7, 61)   # one slice or many


# -- references ---------------------------------------------------------------


def ref_iterate(rule, letters, n):
    table = {ord(c): img for c, img in rule.images.items()}
    for _ in range(n):
        letters = letters.translate(table)
    return letters


_FORBIDDEN = re.compile(r"LL|hH|[Hh]{7}")


def ref_forbidden(letters):
    return _FORBIDDEN.search(letters) is None


def ref_sign(a, b, d):
    """Sign of a + b*sqrt(d) in Python integers (d not a square)."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -int(a < 0 or b < 0)
    # opposite signs: |a| against |b| sqrt(d) decides
    return (1 if a > 0 else -1) * (1 if a * a > d * b * b else -1)


def ref_nearest_offsets(u, v, D):
    """Offsets with a per-pair Python dedupe loop and int64 coordinates."""
    u, v = u.astype(np.int64), v.astype(np.int64)
    root = math.sqrt(D)
    U, V = int(u[-1]), int(v[-1])
    fx = u.astype(np.float64) + v.astype(np.float64) * root
    s2u = U - u[::-1]
    s2v = V - v[::-1]
    s2f = fx[-1] - fx[::-1]
    idx = np.clip(np.searchsorted(fx, s2f), 1, len(fx) - 1)
    left = s2f - fx[idx - 1]
    right = fx[idx] - s2f
    choice = np.where(right < left, idx, idx - 1)
    for i in np.nonzero(np.abs(right - left) < 1e-6)[0].tolist():
        a = 2 * int(s2u[i]) - int(u[idx[i] - 1]) - int(u[idx[i]])
        b = 2 * int(s2v[i]) - int(v[idx[i] - 1]) - int(v[idx[i]])
        choice[i] = idx[i] if ref_sign(a, b, D) > 0 else idx[i] - 1
    du = s2u - u[choice]
    dv = s2v - v[choice]
    out = {}
    for a, key in zip(du.tolist(), dv.tolist()):
        if ref_sign(a, key, D) < 0:
            a, key = -a, -key
        if key not in out:
            out[key] = a + key * root
    return out


def exact_nearest_offsets(u, v, D):
    """Offsets with every comparison made by ``ref_sign``: the neighbours
    are the first vertex at or past x (kept in 1..last) and the one before,
    and a midpoint goes to the earlier one."""
    pts = list(zip(u.tolist(), v.tolist()))
    U, V = pts[-1]
    last = len(pts) - 1
    out = {}
    for xu, xv in reversed(pts):
        yu, yv = U - xu, V - xv
        k = 1
        while k < last and ref_sign(yu - pts[k][0], yv - pts[k][1], D) > 0:
            k += 1
        (pu, pv), (nu, nv) = pts[k - 1], pts[k]
        if ref_sign(2 * yu - pu - nu, 2 * yv - pv - nv, D) > 0:
            pu, pv = nu, nv
        a, key = yu - pu, yv - pv
        if ref_sign(a, key, D) < 0:
            a, key = -a, -key
        out.setdefault(key, a + key * math.sqrt(D))
    return out


def ref_coords(line, n):
    """Vertex coordinates of sigma^n(H), segment by segment."""
    u, v = [0], [0]
    for ch in ref_iterate(line.rule, "H", n):
        du, dv, count = line.segments[ch]
        for _ in range(count):
            u.append(u[-1] + du)
            v.append(v[-1] + dv)
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def split_layout(u, v, size):
    """Vertices u, v as a layout of blocks of ``size`` segments (the last
    may be shorter), equal blocks sharing a letter; a size past the last
    vertex gives the raw (u, v) pair as one block."""
    letters, blocks, skeleton = {}, {}, ""
    for a in range(0, len(u) - 1, size):
        bu, bv = u[a:a + size + 1] - u[a], v[a:a + size + 1] - v[a]
        key = (*bu.tolist(), None, *bv.tolist())
        c = letters.setdefault(key, chr(65 + len(letters)))
        blocks[c] = (bu, bv)
        skeleton += c
    return _Layout(skeleton, blocks)


SPLITS = (1, 2, 1 << 30)   # one segment a block, two, or one block


def ref_g_at_Q(n):
    """Complete legs left of the midpoint on each side, leg by leg."""
    pos, legs = [(0, 0)], []
    for ch in ref_iterate(sigma_til12(), "H", n):
        du, dv, count = TIL12.segments[ch]
        for _ in range(count):
            start = pos[-1]
            pos.append((start[0] + du, start[1] + dv))
            if ch == "L":
                legs.append((start, pos[-1]))
    U, V = pos[-1]
    side1 = sum(ref_sign(2 * eu - U, 2 * ev - V, 17) <= 0 for _, (eu, ev) in legs)
    side2 = sum(ref_sign(2 * su - U, 2 * sv - V, 17) >= 0 for (su, sv), _ in legs)
    return side1 - side2


def ref_til13_offsets(n):
    """Nearest-vertex distances on the integer til13 layout (|H| = 2,
    |L| = |h| = 1), by searching the mirrored vertices among the others."""
    letters = ref_iterate(til13_rule(), "H", n)
    steps = [2 if ch == "H" else 1 for ch in letters]
    x = np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
    mirror = int(x[-1]) - x[::-1]
    idx = np.clip(np.searchsorted(x, mirror), 1, len(x) - 1)
    dist = np.minimum(mirror - x[idx - 1], x[idx] - mirror)
    return {int(d): float(d) for d in np.unique(dist).tolist()}


def ref_til2_slippage_bound(n):
    """Running short-leg surplus merged over equal (u, v) in Python."""
    letters = ref_iterate(til2_rule(), "H", n)
    x = [(0, 0)]
    for ch in letters:
        du, dv = (1, 0) if ch == "H" else (-2, 1)
        x.append((x[-1][0] + du, x[-1][1] + dv))
    U, V = x[-1]
    events = {}
    for i, ch in enumerate(letters):
        if ch == "S":
            events[x[i + 1]] = events.get(x[i + 1], 0) + 1
            end = (U - x[i][0], V - x[i][1])
            events[end] = events.get(end, 0) - 1
    running, best = 0, 0
    for key in sorted(events, key=lambda p: p[0] + p[1] * math.sqrt(5)):
        running += events[key]
        best = max(best, abs(running))
    return best


# -- equivalence --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RULES), st.data(), st.integers(0, 10))
def test_iterate_matches_per_step_translate(rule, data, n):
    seed = data.draw(st.text(alphabet=rule.chars, max_size=4))
    assert iterate(rule, seed, n) == ref_iterate(rule, seed, n)


_PIECES = st.sampled_from(["H", "h", "L", "x", "é", "\ud800", "HHH", "hhh"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=30).map("".join))
@example("HhHhHhH")
@example("éHHHHHHé")
@example("hhhhhhh")
@example("HHHHHH")
@example("xLLx")
@example("x" * 5 + "HHHhhhh")        # a 7-run across the slice edge at 7
@example("x" * 58 + "HHHhhhh")       # and across the one at 61
@example("x" * 6 + "HHHHHHH")        # the last 7 letters of a 7-slice
@example("x" * 60 + "hhhhhhh")       # and of a 61-slice
@example("x" * 5 + "HHHhhh" + "x")   # six, across an edge
@example("x" * 55 + "hhhhhh" + "L")  # six, ending at an edge
@example("é" * 4 + "HHHHHHH")        # non-ASCII letters before the edge
@example("\ud800HHH\udfffHHHH")      # a lone surrogate breaks the run
@example("\udfff" * 5 + "hhhhhhh\ud800")
def test_forbidden_check_matches_the_regex(letters):
    want = ref_forbidden(letters)
    assert forbidden_subwords_check(letters) == want
    for size in SLICES:
        assert _avoids_forbidden(letters, size) == want, size


def test_forbidden_check_on_words():
    for n in range(1, 15):
        word = iterate(sigma_til12(), "H", n)
        want = ref_forbidden(word)
        assert forbidden_subwords_check(word) == want
        for size in SLICES:
            assert _avoids_forbidden(word, size) == want, (n, size)


def test_forbidden_check_scans_slices():
    # the word has 2,968,198 letters; only slice-sized copies are made
    word = iterate(sigma_til12(), "H", 16)
    tracemalloc.start()
    try:
        forbidden_subwords_check(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (DEFAULT_SLICE + 6) + (1 << 12)


_A = st.one_of(st.just(0), st.integers(-(2 ** 31) + 1, 2 ** 31 - 1),
               st.integers(-50, 50))
_B = st.one_of(st.just(0), st.integers(-5 * 10 ** 8, 5 * 10 ** 8),
               st.integers(-50, 50))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_A, _B), min_size=1, max_size=40),
       st.sampled_from([5, 17]))
def test_sign_quad_is_exact(pairs, D):
    A = np.array([a for a, _ in pairs], dtype=np.int64)
    B = np.array([b for _, b in pairs], dtype=np.int64)
    assert _sign_quad(A, B, D).tolist() == [ref_sign(a, b, D) for a, b in pairs]


def test_sign_quad_refuses_past_its_headroom():
    with pytest.raises(InternalError):
        _sign_quad(np.array([2 ** 31]), np.array([0]), 5)
    with pytest.raises(InternalError):
        _sign_quad(np.array([0]), np.array([2 ** 30]), 17)


@pytest.mark.parametrize("line, n_max", [(TIL12, 10), (TIL2, 8)], ids=["til12", "til2"])
def test_nearest_offsets_match_the_python_loop(line, n_max):
    for n in range(1, n_max + 1):
        u, v = ref_coords(line, n)
        want = list(ref_nearest_offsets(u, v, line.D).items())
        for k in DEPTHS:
            layout = _block_layout(line, n, k)
            for chunk in (DEFAULT_CHUNK, 1 << 20, 997, 61):   # one chunk or many
                got = list(_nearest_offsets(layout, line.D, chunk).items())
                assert got == want, (n, k, chunk)


_SIZES = st.sampled_from([1, 2, 3, 5, 8, 1 << 30])   # segments a block
_CHUNKS = st.sampled_from([1, 2, 7, DEFAULT_CHUNK])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([TIL12, TIL2]), st.data(), _SIZES, _CHUNKS)
def test_nearest_offsets_of_random_splits_match_the_exact_loop(line, data, size, chunk):
    # random letters, not a word of the rule, cut into blocks that differ
    # in content, read a chunk of blocks and one configuration at a time
    steps = [(du, dv) for du, dv, count in line.segments.values() for _ in range(count)]
    word = data.draw(st.lists(st.sampled_from(steps), min_size=1, max_size=60))
    u = np.cumsum([0] + [du for du, _ in word])
    v = np.cumsum([0] + [dv for _, dv in word])
    got = list(_nearest_offsets(split_layout(u, v, size), line.D, chunk).items())
    assert got == list(exact_nearest_offsets(u, v, line.D).items())


def test_nearest_offsets_stream_their_chunks():
    # til12 n = 14 has 579,289 vertices.  Beyond the layout the kernel
    # holds a fixed number of chunk-sized arrays, however long the word:
    # the rows of one chunk of skeleton blocks, the configurations seen,
    # and the coordinates and floats of one batch of configurations.
    layout = _block_layout(TIL12, 14)
    tracemalloc.start()
    try:
        _nearest_offsets(layout, TIL12.D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * DEFAULT_CHUNK


@pytest.mark.parametrize("line, n_max", [(TIL12, 8), (TIL2, 5)], ids=["til12", "til2"])
def test_layout_reads_the_word_at_any_depth(line, n_max):
    for n in range(n_max + 1):
        u, v = ref_coords(line, n)
        last = len(u) - 1
        for k in DEPTHS:
            layout = _block_layout(line, n, k)
            assert layout.last == last
            assert [layout.vertex(i) for i in range(last + 1)] == \
                list(zip(u.tolist(), v.tolist())), (n, k)
            # each skeleton letter's block starts where its columns say
            starts = layout.starts.tolist()
            assert starts == sorted(starts) and starts[-1] == last
            assert [(u[i], v[i]) for i in starts] == \
                list(zip(layout.su, layout.sv)), (n, k)


def _block_bound(depth, skeleton_depth):
    """Letters of the longest til12 block sigma^depth(c), or of the
    skeleton sigma^skeleton_depth(H) if that is longer."""
    rule = TIL12.rule
    blocks = [sum(_nth(_letter_counts(rule, c), depth)) for c in rule.chars]
    return max(*blocks, sum(_nth(_letter_counts(rule, "H"), skeleton_depth)))


def test_til12_builds_no_word_longer_than_a_block(monkeypatch):
    # sigma^16(H) has 2,968,198 letters; the skeleton sigma^11(H) has
    # 26,894 and the longest block sigma^5(L) 152
    asked = []

    def recording(rule, seed, n, cap=boundary.DEFAULT_LETTER_CAP):
        word = iterate(rule, seed, n, cap)
        asked.append(len(word))
        return word

    monkeypatch.setattr(boundary, "iterate", recording)
    monkeypatch.setitem(vars(TIL12), "_blocks", {})   # build them here
    slippage_til12(16)
    bound = _block_bound(DEFAULT_DEPTH, 16 - DEFAULT_DEPTH)
    assert asked and max(asked) <= bound < 30_000


@pytest.mark.parametrize("n", [12, 15])
def test_til12_traced_peak_does_not_grow_with_n(n, monkeypatch):
    # the whole word would take at least 10 bytes a vertex: 1.5 MB at
    # n = 12 and 15 MB at n = 15.  The skeleton columns take about 33
    # bytes a block of 123 to 188 segments at the default depth (0.35 MB
    # at n = 15); the blocks, built inside the trace, and the kernel's
    # chunk-sized arrays hold the same bytes at every n.
    monkeypatch.setitem(vars(TIL12), "_blocks", {})
    tracemalloc.start()
    try:
        slippage_til12(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


def test_til13_offsets_match_the_integer_rule():
    for n in range(19):
        assert til13_offsets(n) == ref_til13_offsets(n), n


def pell_power(k):
    """(33 - 8 sqrt17)^k = A + B sqrt17.  33 + 8 sqrt17 is a unit of
    Z[sqrt17] (33^2 - 17 * 8^2 = 1), so its conjugate, about 0.015, has
    small powers far below float resolution at their own coordinates."""
    A, B = 1, 0
    for _ in range(k):
        A, B = 33 * A - 17 * 8 * B, 33 * B - 8 * A
    return A, B


_A5, _B5 = pell_power(5)   # 625447713 - 151693352 sqrt17, about 8e-10


@pytest.mark.parametrize("sign", [1, -1])
def test_offset_sign_near_zero_is_exact(sign):
    # vertices 0, a = 1, total = 2 +- eps: the mirror of a lands eps from
    # a, and the unsigned offset eps has the key B5 either way; floats at
    # these coordinates cannot tell eps from -eps
    assert ref_sign(_A5, _B5, 17) > 0 and abs(_A5 + _B5 * math.sqrt(17)) < 1e-6
    u = np.array([0, 1, 2 + sign * _A5], dtype=np.int32)
    v = np.array([0, 0, sign * _B5], dtype=np.int32)
    want = list(exact_nearest_offsets(u, v, 17).items())
    assert [key for key, _ in want] == [0, _B5]
    for size in SPLITS:
        got = list(_nearest_offsets(split_layout(u, v, size), 17).items())
        assert got == want, size


def test_mirrored_vertex_just_below_a_block_end_is_matched():
    # vertices 0, a = 2 sqrt17 and 2a - eps: the mirror of a lands eps
    # below a, the end of the first block, and its float lands above it.
    # Only a stretch that runs past the block end holds a vertex at or
    # past that float, so the search stays in the stretch.
    root = math.sqrt(17)
    u = np.array([0, 0, -_A5], dtype=np.int64)
    v = np.array([0, 2, 4 - _B5], dtype=np.int64)
    assert (2 - _B5) * root - _A5 > 2 * root
    want = list(exact_nearest_offsets(u, v, 17).items())
    for size in SPLITS:
        got = list(_nearest_offsets(split_layout(u, v, size), 17).items())
        assert got == want, size


def test_near_tie_at_int32_reach_is_exact():
    # vertices 0, p, n, total with the mirror of p eps/2 past the
    # midpoint of p and n: n is nearer.  Coordinates near 2**31 put the
    # float error of that comparison above 1e-6, so a fixed margin of
    # 1e-6 picks p here; the margin must grow with the coordinates.
    pu, pv, ku, kv = 761779327, 188420619, 756, 118
    u = np.array([0, pu, pu + ku - _A5, 2 * pu + ku // 2], dtype=np.int32)
    v = np.array([0, pv, pv + kv - _B5, 2 * pv + kv // 2], dtype=np.int32)
    want = list(exact_nearest_offsets(u, v, 17).items())
    assert [key for key, _ in want] == [0, kv // 2 - _B5]
    for size in SPLITS:
        got = list(_nearest_offsets(split_layout(u, v, size), 17).items())
        assert got == want, size


# sha256 of (f, g_at_Q, keys, float.hex of the values) of slippage_til12(n),
# recorded from the whole-word layout the blocks replaced (n <= 17) and
# from the vertex-by-vertex scan of the blocks the overlap memo replaced
WHOLE_WORD_DIGESTS = {
    1: "968d8358badf1af6a264fea233bfc64ca0b1bd821759cfb5fb3ff63989c80aed",
    2: "4e0773d2abd8c83498c5cf44a18d9ce8c187205531bf8d99d3db0925fb608686",
    3: "c58a131bd073f9f43679ce8671b46fc1354bf5f56b8abae5dc9866b7ad929ee0",
    4: "ca8a4a267c8e667139ef71d702694c1a819bfb5399f676ef59cdb3fa545d9901",
    5: "905ad1fbe451f29f9ccd762dcbf25427d04b143e4f8cfdf23443b9ab172d9780",
    6: "83646fb77982dbd96d91ef73d4c8ce2bef3505e9b765ed311e3c81f9505e354e",
    7: "856b211c9834e5e048f6a7d43c93d123ecc0d65fe83c21280da3621858793375",
    8: "e92ab05ddf7f48303634228e6d3a57b63c34e40ee45b35f7fd4c63a6a4adfa7b",
    9: "649bab18be12ea5abf2138532b06d44f87c7265ce49946d86c8b1eec46b753be",
    10: "9d5596982fdf08ec9edb5072c79d74fa6d5798b3d61d6a19f215cf8c5573cd1c",
    11: "c5e9e2714d27d6314606d662e3a6d47cfe52814f0f4b5cd20f5b5f81ebfb6d9c",
    12: "9965644afbddd062f14c77396b96d1d03ccd29f53a246b323d1327e12f780dd0",
    13: "9155846d6e72aeb8baaee8496e5e897292a7993db91f72970128ef546cc4438b",
    14: "a53ecbbdb0ddd1c17d1af76881fd79b4fd8a7d2e88fcc716a0609de728a5b593",
    15: "457da15eb1003ac524d4fc7c6c511a71d0f98839eef51d46f33a637e00c10ce0",
    16: "da14653b819fe046f70b3740e4437e72194b4394978e38e5ab4ce2dd83124130",
    17: "e53b7a5d8c47214fd4f661474dcfa5b850b13f25782856aec05fe149d9a1580d",
    18: "d1b2be1ead4410516dcabd5c7be4f3da92cfeb63c6a4568c76fadc543dcecb8b",
    19: "67d0c50685f574c9b098aa7c5f337a8a573db37c6919a3e6f9347da9cc44688a",
}


def profile_digest(prof):
    text = repr((prof.f, prof.g_at_Q, prof.offset_keys,
                 [x.hex() for x in prof.distinct_offsets]))
    return hashlib.sha256(text.encode()).hexdigest()


def test_til12_profiles_match_the_whole_word_layout():
    for n, want in WHOLE_WORD_DIGESTS.items():
        assert profile_digest(slippage_til12(n)) == want, n


@pytest.mark.parametrize("k", DEPTHS[:2])
def test_til12_profiles_do_not_depend_on_the_block_depth(k, monkeypatch):
    monkeypatch.setattr(boundary, "_block_layout",
                        functools.partial(_block_layout, k=k))
    for n in range(1, 14):
        assert profile_digest(slippage_til12(n)) == WHOLE_WORD_DIGESTS[n], n


def bare_peak_kib(*argv):
    """ru_maxrss (KiB on Linux) of ``python argv``, started by a bare
    interpreter: a child's ru_maxrss also counts the pages of the process
    it was forked from, which here would be pytest's."""
    code = ("import os, subprocess, sys; "
            f"child = subprocess.Popen([sys.executable, *{argv!r}], "
            "stdout=subprocess.DEVNULL); "
            "_, status, usage = os.wait4(child.pid, 0); "
            "print(status, usage.ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    status, peak = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout.split()
    assert status == "0"
    return int(peak)


def test_til12_peak_is_flat_at_n_18():
    # the whole-word layout peaked at 268 MiB here; the skeleton columns
    # take about 33 bytes a block of 123 to 188 segments
    work = "from tilelab.boundary import slippage_til12; slippage_til12(18)"
    assert bare_peak_kib("-c", work) < 80 * 1024


def test_til12_boundary_rows_peak_below_40_mib():
    # the til12 op of the fault-line benchmark, rows n = 1..16: 34.0 MiB
    # with the vertex-by-vertex scan of the blocks, 34.7 with the memo
    argv = ("-m", "tilelab.cli", "boundary", "--system", "til12", "--n", "16")
    assert bare_peak_kib(*argv) < 40 * 1024


def test_til12_matches_each_configuration_once(monkeypatch):
    # sigma^18(H) has 24.9 M vertices, and the word grows 2.56x a level;
    # its distinct block overlaps grow about |1 - sqrt(17)| / 2 = 1.56x
    match = boundary._match
    seen, counts = set(), []

    def counting(layout, D, c, lo, hi, Ru, Rv):
        for x, a, b, u, v in zip(c.tolist(), lo.tolist(), hi.tolist(), Ru, Rv):
            row = (x, *layout.codes[a:b].tolist(), layout.su[a] - u, layout.sv[a] - v)
            assert row not in seen, row
            seen.add(row)
        counts[-1][0] += len(c)
        counts[-1][1] += int(np.diff(layout.at)[c].sum())
        return match(layout, D, c, lo, hi, Ru, Rv)

    monkeypatch.setattr(boundary, "_match", counting)
    for n in range(14, 19):
        seen.clear()
        counts.append([0, 0])
        assert profile_digest(slippage_til12(n)) == WHOLE_WORD_DIGESTS[n], n
    configs = [c for c, _ in counts]
    assert all(b < 1.7 * a for a, b in zip(configs, configs[1:])), configs
    assert counts[-1][1] <= 0.05 * (_block_layout(TIL12, 18).last + 1)


def test_g_at_q_matches_the_leg_by_leg_count(monkeypatch):
    want = [ref_g_at_Q(n) for n in range(1, 11)]
    for k in DEPTHS:
        monkeypatch.setattr(boundary, "_block_layout",
                            functools.partial(_block_layout, k=k))
        assert [slippage_til12(n).g_at_Q for n in range(1, 11)] == want, k


def test_vertex_coords_are_running_sums():
    steps = {c: (du, dv) for c, (du, dv, _) in TIL12.segments.items()}
    u, v = _running_sums(b"HLLh", steps)
    assert u.dtype == np.int64 and v.dtype == np.int64
    assert u.tolist() == [0, 4, 3, 2, 6]
    assert v.tolist() == [0, 0, 1, 2, 2]
    # sigma^2(H) = HHhhLH, L two segments
    layout = _block_layout(TIL12, 2)
    assert list(map(layout.vertex, range(8))) == [
        (0, 0), (4, 0), (8, 0), (12, 0), (16, 0), (15, 1), (14, 2), (18, 2)]


def test_layout_refuses_past_the_letter_cap_before_any_block(monkeypatch):
    # the int64 blocks and Python-int skeleton offsets hold any word under
    # the letter cap; past it the layout refuses as iterate would, having
    # built nothing
    def build(*args, **kwargs):
        raise AssertionError("a fault-line word was built")

    monkeypatch.setattr(boundary, "iterate", build)
    message = "til12: sigma^20 would have 127786406 letters, cap is 100000000"
    for fn in (functools.partial(_block_layout, TIL12), slippage_til12):
        with pytest.raises(ResourceError) as exc:
            fn(20)
        assert str(exc.value) == message


def test_til2_slippage_bound_matches_python_merge():
    # til2_slippage_bound is the largest surplus of the level-n pairs
    for n in range(1, 11):
        assert boundary.til2_slippage_bound(n) == ref_til2_slippage_bound(n)
