"""The vectorized boundary engine against the straightforward versions it
replaced, which are kept here as references."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab import boundary
from tilelab.boundary import (TIL2, TIL12, _avoids_forbidden, _layout,
                              _nearest_offsets, _sign_quad, _vertex_coords,
                              forbidden_subwords_check, iterate, sigma0_til12,
                              sigma_til12, slippage_til12, til2_rule,
                              til13_offsets, til13_rule)
from tilelab.errors import InternalError, ResourceError

RULES = [sigma0_til12(), sigma_til12(), til2_rule(), til13_rule()]
DEFAULT_CHUNK = inspect.signature(_nearest_offsets).parameters["chunk"].default
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
        u, v = _layout(line, n)
        assert u.dtype == np.int32 and v.dtype == np.int32
        want = list(ref_nearest_offsets(u, v, line.D).items())
        for chunk in (DEFAULT_CHUNK, 1 << 20, 997, 61):   # one chunk or many
            assert list(_nearest_offsets(u, v, line.D, chunk).items()) == want


def test_nearest_offsets_stream_their_chunks():
    # til12 n = 14 lays out 579,289 vertices.  Beyond the coordinates the
    # kernel holds a fixed number of chunk-sized arrays, however long the
    # layout: float positions only for one chunk and its searched stretch.
    u, v = _layout(TIL12, 14)
    tracemalloc.start()
    try:
        _nearest_offsets(u, v, TIL12.D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * DEFAULT_CHUNK


@pytest.mark.parametrize("line, n", [(TIL12, 14), (TIL2, 9)], ids=["til12", "til2"])
def test_layout_holds_ten_bytes_a_vertex(line, n):
    # at the peak: int32 u and v, one letter byte a segment and one int8
    # step array; the word and the cast and index temporaries are gone
    tracemalloc.start()
    try:
        u, _ = _layout(line, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * len(u) + (1 << 16)


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
    got = list(_nearest_offsets(u, v, 17).items())
    assert got == list(exact_nearest_offsets(u, v, 17).items())
    assert [key for key, _ in got] == [0, _B5]


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
    assert list(_nearest_offsets(u, v, 17).items()) == want


def test_g_at_q_matches_the_leg_by_leg_count():
    for n in range(1, 11):
        assert slippage_til12(n).g_at_Q == ref_g_at_Q(n), n


def test_vertex_coords_are_running_sums():
    u, v = _vertex_coords(b"HLLh", TIL12.segments)
    assert u.dtype == np.int32 and v.dtype == np.int32
    assert u.tolist() == [0, 4, 3, 2, 6]
    assert v.tolist() == [0, 0, 1, 2, 2]


def test_vertex_coords_refuse_past_int32_headroom():
    codes = b"A" * (2 ** 31 // 127 + 1)
    with pytest.raises(ResourceError):
        _vertex_coords(codes, {"A": (127, 0, 1)})


def test_til2_slippage_bound_matches_python_merge():
    # til2_slippage_bound is the largest surplus of the level-n pairs
    for n in range(1, 11):
        assert boundary.til2_slippage_bound(n) == ref_til2_slippage_bound(n)
