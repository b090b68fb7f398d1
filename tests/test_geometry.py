import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from tilelab.errors import ArgumentError, DomainError
from tilelab.geometry import (KEY_CONTEXT, KEY_DIGITS, Similarity, compose, shape_from_pq,
                              shape_from_theta, tile_area, vertices,
                              wrap_angle)
from tilelab.substitution import root_tiling


def test_right_triangle_relations(til12):
    s = til12
    assert s.a ** 2 + s.b ** 2 == pytest.approx(s.c ** 2, rel=1e-14)
    assert s.A ** 2 + 4.0 * s.B ** 2 == pytest.approx(1.0, rel=1e-14)
    assert s.A == pytest.approx(s.a / s.c, rel=1e-14)
    assert s.B == pytest.approx(s.b / (2.0 * s.c), rel=1e-14)


def test_shape_from_pq_hits_the_requested_ratio():
    for p, q in [(1, 2), (2, 1), (1, 3), (3, 4), (5, 7)]:
        s = shape_from_pq(p, q)
        assert s.alpha / s.beta == pytest.approx(p / q, rel=1e-12)
        assert s.rationality == Fraction(p, q)
        assert s.r == pytest.approx(s.A ** (1.0 / p), rel=1e-12)
        assert s.r == pytest.approx(s.B ** (1.0 / q), rel=1e-12)


def test_shape_from_pq_rejects_bad_input():
    with pytest.raises(ArgumentError):
        shape_from_pq(2, 4)
    with pytest.raises(ArgumentError):
        shape_from_pq(0, 3)
    with pytest.raises(ArgumentError):
        shape_from_pq(-1, 2)


def ref_pq_theta(p, q):
    """The fixed 200-step bisection from [1e-9, pi/2 - 1e-9]."""
    def g(t):
        return q * math.log(math.sin(t)) - p * math.log(math.cos(t) / 2.0)

    lo, hi = 1e-9, math.pi / 2.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_shape_from_pq_keeps_the_fixed_step_bisection():
    for p in range(1, 30):
        for q in range(1, 200):
            if math.gcd(p, q) == 1:
                assert shape_from_pq(p, q).theta == ref_pq_theta(p, q), (p, q)


def test_shape_from_pq_reaches_tiny_angles():
    # theta is about 2**-(p/q): below the old 1e-9 bracket from p/q = 30
    for p in (30, 200, 1020):
        s = shape_from_pq(p, 1)
        assert 0.0 < s.theta < 1e-9
        assert s.theta == pytest.approx(2.0 ** -p, rel=1e-9)
    with pytest.raises(DomainError):
        shape_from_pq(1100, 1)


def test_shape_from_theta_domain():
    with pytest.raises(DomainError):
        shape_from_theta(0.0)
    with pytest.raises(DomainError):
        shape_from_theta(math.pi / 2.0)
    with pytest.raises(DomainError):
        shape_from_theta(1.0, c=-1.0)


def test_pinwheel_is_the_half_square(pinwheel):
    assert pinwheel.b == pytest.approx(2.0 * pinwheel.a, rel=1e-12)
    assert pinwheel.A == pytest.approx(pinwheel.B, rel=1e-12)


def test_til13_is_the_isosceles_right_triangle(til13):
    assert til13.theta == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert til13.a == pytest.approx(til13.b, rel=1e-12)


def test_size_key_rational_is_an_exact_integer(til12, til2):
    assert til12.size_key(2, 3) == 2 * 1 + 3 * 2
    assert isinstance(til12.size_key(2, 3), int)
    assert til2.size_key(2, 3) == 2 * 2 + 3 * 1
    # ties on the lattice: (2,0) and (0,1) have the same size in til12
    assert til12.size_key(2, 0) == til12.size_key(0, 1)


def _mp_key(theta, i, j):
    """i * alpha + j * beta from mpmath at 80 digits."""
    with mpmath.workdps(80):
        t = mpmath.mpf(theta)
        return -i * mpmath.log(mpmath.sin(t)) + j * mpmath.log(2 / mpmath.cos(t))


def _significant_digits(key, want):
    with mpmath.workdps(80):
        err = abs(mpmath.mpf(str(key)) - want)
        return math.inf if err == 0 else float(-mpmath.log10(err / want))


def test_size_key_irrational_is_extended_precision(irr1):
    k = irr1.size_key(3, 2)
    assert isinstance(k, Decimal) and len(k.as_tuple().digits) == KEY_DIGITS
    assert k == KEY_CONTEXT.fma(3, irr1.size_key(1, 0),
                                KEY_CONTEXT.multiply(2, irr1.size_key(0, 1)))
    assert _significant_digits(k, _mp_key(irr1.theta, 3, 2)) >= 45
    assert float(k) == pytest.approx(irr1.size_value(3, 2), rel=1e-14)


@pytest.mark.parametrize("theta", [1e-6, 0.1, 0.46364760900, 1.0, 1.5,
                                   math.pi / 2 - 1e-9, math.nextafter(math.pi / 2, 0)])
def test_irrational_keys_match_mpmath_to_45_digits(theta):
    # alpha, beta, and i * alpha + j * beta up to i, j = 2,000; the last
    # theta is the largest a shape takes, where alpha is 3.7e-32
    shape = shape_from_theta(theta)
    exps = (0, 1, 2, 3, 17, 250, 1999, 2000)
    for i in exps:
        for j in exps:
            if i or j:
                got = _significant_digits(shape.size_key(i, j), _mp_key(theta, i, j))
                assert got >= 45, (i, j, got)


def test_scale_matches_size_value(til12):
    for i, j in [(0, 0), (1, 0), (0, 1), (3, 2)]:
        assert til12.scale(i, j) == pytest.approx(
            math.exp(-til12.size_value(i, j)), rel=1e-12)


def test_wrap_angle_range():
    for phi in (-9.0, -math.pi, 0.0, math.pi, 7.5, 123.456):
        w = wrap_angle(phi)
        assert 0.0 <= w < 2.0 * math.pi
        assert math.cos(w) == pytest.approx(math.cos(phi), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(phi), abs=1e-12)


def test_daughter_frames_table(til12):
    frames = til12.daughter_frames()
    assert len(frames) == 5
    assert sorted(f.exp_delta for f in frames) == [(0, 1)] * 4 + [(1, 0)]
    # pose multiset relative to the parent: two mirrored copies at theta,
    # plain copies at theta and theta+pi, one mirrored at theta+pi/2
    th = til12.theta
    got = sorted((f.handedness, round(f.phi(th), 9)) for f in frames)
    want = sorted([(-1, round(th, 9)), (-1, round(th, 9)),
                   (1, round(th, 9)), (1, round(th + math.pi, 9)),
                   (-1, round(th + math.pi / 2.0, 9))])
    assert got == want


def test_similarity_compose_and_inverse():
    s1 = Similarity(handedness=-1, phi=0.7, scale=0.5, translation=(0.2, -0.1))
    s2 = Similarity(handedness=1, phi=2.1, scale=1.7, translation=(-1.0, 0.4))
    both = compose(s1, s2)
    p = (0.3, 0.9)
    assert both.apply(p) == pytest.approx(s1.apply(s2.apply(p)), abs=1e-14)
    assert both.inverse().apply(both.apply(p)) == pytest.approx(p, abs=1e-14)
    assert both.handedness == s1.handedness * s2.handedness


def test_root_tile_geometry(til12):
    tile = root_tiling(til12).tiles[0]
    v = vertices(tile)
    assert len(v) == 4
    assert v[0] == pytest.approx((0.0, 0.0), abs=1e-15)
    assert v[1] == pytest.approx((til12.b, 0.0), abs=1e-15)
    assert v[2] == pytest.approx((til12.b, til12.a), abs=1e-15)
    # long-leg midpoint is a marked boundary point, not a corner
    assert v[3] == pytest.approx((til12.b / 2.0, 0.0), abs=1e-15)
    assert tile_area(tile) == pytest.approx(til12.a * til12.b / 2.0, rel=1e-14)


def test_shape_json_round_trips_rationality(til12, irr1):
    d = til12.to_json()
    assert d["rationality"] == {"p": 1, "q": 2}
    assert irr1.to_json()["rationality"] is None
