"""The keyed-once census, the per-shape oracle window and the Brent port
against the code they replaced, which is kept here as references."""

import decimal
import math
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tilelab
from tilelab import stats, substitution
from tilelab.classify import _canon_angle, orientation_census
from tilelab.errors import DomainError, InternalError
from tilelab import geometry
from tilelab.geometry import KEY_CONTEXT, KEY_DIGITS, _alpha_beta, shape_from_pq, shape_from_theta
from tilelab.spectral import _brentq, irrational_bounds
from tilelab.stats import census_size_histogram, count_oracle
from tilelab.substitution import (COLUMNS, Tn_batches, census_counts, census_steps,
                                  size_class_ranks)

COPRIME = [(p, q) for p in range(1, 9) for q in range(1, 9) if math.gcd(p, q) == 1]

pq_shapes = st.sampled_from(COPRIME).map(lambda pq: shape_from_pq(*pq))
theta_shapes = st.floats(0.3, 1.4).map(shape_from_theta)
shapes = st.one_of(pq_shapes, theta_shapes)


# -- references ---------------------------------------------------------------


def ref_size_key(shape, i, j):
    """The size key computed afresh on every call."""
    if shape.rationality is not None:
        return i * shape.rationality.numerator + j * shape.rationality.denominator
    alpha, beta = _alpha_beta(shape.theta)
    return KEY_CONTEXT.fma(i, alpha, KEY_CONTEXT.multiply(j, beta))


def ref_mp_key(theta, i, j):
    """i * alpha + j * beta from mpmath at 80 digits."""
    with mpmath.workdps(80):
        t = mpmath.mpf(theta)
        return -i * mpmath.log(mpmath.sin(t)) + j * mpmath.log(2 / mpmath.cos(t))


def ref_exact(x):
    """A size key or an oracle cut as an exact Fraction (a str is no
    number, and a cut that is not finite is outside every window)."""
    if isinstance(x, str):
        raise TypeError("a str is not a cut")
    if isinstance(x, mpmath.mpf):
        if not mpmath.isfinite(x):
            raise DomainError("not finite")
        sign, man, exp, _ = x._mpf_
        return (-1) ** sign * man * Fraction(2) ** exp
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, Decimal):
        if not x.is_finite():
            raise DomainError("not finite")
        return Fraction(x)
    if not math.isfinite(x):
        raise DomainError("not finite")
    return Fraction(float(x))


def ref_min_key_pairs(shape, pairs):
    """Key every pair, sort, check every adjacent pair for a near tie."""
    keyed = sorted(((ref_size_key(shape, i, j), (i, j)) for i, j in pairs),
                   key=lambda kv: kv[0])
    keys = [k for k, _ in keyed]
    for prev, cur in zip(keys, keys[1:]):
        if cur != prev and float(cur - prev) < substitution.NEAR_TIE:
            raise InternalError("near tie")
    return {pair for key, pair in keyed if key == keys[0]}


def ref_census_steps(shape, n):
    counts = {(0, 0): 1}
    for gen in range(n + 1):
        winners = ref_min_key_pairs(shape, counts.keys())
        yield gen, dict(counts), min(winners)
        if gen == n:
            break
        nxt = {}
        for (i, j), cnt in counts.items():
            if (i, j) in winners:
                nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + cnt
                nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) + 4 * cnt
            else:
                nxt[(i, j)] = nxt.get((i, j), 0) + cnt
        counts = nxt


def ref_rounded(x):
    """A Fraction rounded once to KEY_DIGITS significant digits, half to even."""
    return Fraction(decimal.Context(prec=KEY_DIGITS).divide(x.numerator, x.denominator))


def ref_count_oracle(shape, t_cut, ij):
    """The window test on the keys and the cut as exact rationals.  On an
    irrational shape the offset s = key - t_cut and the window bounds are
    each rounded once to KEY_DIGITS digits, as the oracle's contract says."""
    i, j = ij
    alpha = ref_exact(ref_size_key(shape, 1, 0))
    beta = ref_exact(ref_size_key(shape, 0, 1))
    step, mu = sorted((alpha, beta))
    s = ref_exact(ref_size_key(shape, i, j)) - ref_exact(t_cut)
    low, lower, high = 0, step, mu
    if shape.rationality is None:
        eps = Fraction(1, 10 ** 30)
        s, low, lower, high = map(ref_rounded, (s, -eps, step - eps, mu - eps))
    if not low <= s < high:
        raise DomainError("outside the window")
    if s < lower:
        return math.comb(i + j, i) * 4 ** j
    if alpha < beta:
        return (math.comb(i + j - 1, i) * 4 ** j) if j >= 1 else 0
    return (math.comb(i + j - 1, j) * 4 ** j) if i >= 1 else 0


# The five daughters' relative poses as a literal table: handedness
# factor, heading increment (k, l) of k*theta + l*(pi/2), exponent step.
REF_DAUGHTER_DELTAS = (
    (-1, (1, 0), (0, 1)),
    (-1, (1, 0), (0, 1)),
    (+1, (1, 0), (0, 1)),
    (+1, (1, 2), (0, 1)),
    (-1, (1, 1), (1, 0)),
)


def ref_orientation_counts(shape, n, theta_pi):
    counts = {(0, 0, 1, _canon_angle(0, 0, theta_pi)): 1}
    for _ in range(n):
        winners = ref_min_key_pairs(shape, {(i, j) for (i, j, _, _) in counts})
        nxt = {}
        for (i, j, sign, key), cnt in counts.items():
            if (i, j) not in winners:
                nxt[(i, j, sign, key)] = nxt.get((i, j, sign, key), 0) + cnt
                continue
            for dsign, (dk, dl), (di, dj) in REF_DAUGHTER_DELTAS:
                if theta_pi is None:
                    angle = (key[0] + sign * dk, (key[1] + sign * dl) % 4)
                else:
                    u, v = theta_pi.numerator, theta_pi.denominator
                    angle = ((key[0] + sign * (2 * dk * u + dl * v)) % (4 * v),)
                nk = (i + di, j + dj, sign * dsign, angle)
                nxt[nk] = nxt.get(nk, 0) + cnt
        counts = nxt
    return counts


def run_until_error(steps):
    """The (generation, counts in order, min_pair) yields, and the type of
    the exception that ended them (None if none did)."""
    out = []
    try:
        for gen, counts, min_pair in steps:
            out.append((gen, list(counts.items()), min_pair))
    except InternalError as exc:
        return out, type(exc)
    return out, None


# -- the census ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(shape=shapes, n=st.integers(0, 200))
@example(shape=shape_from_theta(1.0), n=200)
@example(shape=shape_from_pq(1, 2), n=200)
def test_census_steps_match_the_full_resort(shape, n):
    assert run_until_error(census_steps(shape, n)) == \
        run_until_error(ref_census_steps(shape, n))


@settings(max_examples=10, deadline=None)
@given(shape=shapes, n=st.integers(0, 120))
def test_census_counts_is_the_last_step(shape, n):
    counts, min_pair = census_counts(shape, n)
    *_, (gen, ref_counts, ref_min) = ref_census_steps(shape, n)
    assert list(counts.items()) == list(ref_counts.items()) and min_pair == ref_min


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.3, 1.4), tie=st.sampled_from([0.01, 0.02, 0.05]))
@example(theta=1.0, tie=0.02)
@example(theta=1.4, tie=0.02)
def test_near_tie_raises_at_the_same_generation(theta, tie):
    # Rational keys are integers a distance >= 1 apart, so any tie
    # threshold below 1 is never reached by them, in either version.
    shape = shape_from_theta(theta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(substitution, "NEAR_TIE", tie)
        got = run_until_error(census_steps(shape, 200))
        assert got == run_until_error(ref_census_steps(shape, 200))
    if (theta, tie) in ((1.0, 0.02), (1.4, 0.02)):
        assert got[1] is InternalError


def test_a_near_tie_also_stops_the_orientation_census(monkeypatch):
    monkeypatch.setattr(substitution, "NEAR_TIE", 0.02)
    shape = shape_from_theta(1.4)
    with pytest.raises(InternalError):
        ref_orientation_counts(shape, 5, None)
    with pytest.raises(InternalError):
        orientation_census(shape, 5)


def by_size_key(shape, counts, tail=lambda key: key[2:]):
    """Counts keyed by (i, j, ...) summed per (size key, *tail(key))."""
    out = {}
    for key, cnt in counts.items():
        cls = (shape.size_key(*key[:2]), *tail(key))
        out[cls] = out.get(cls, 0) + cnt
    return out


@settings(max_examples=20, deadline=None)
@given(shape=shapes, n=st.integers(0, 40))
def test_orientation_census_matches_the_reference(shape, n):
    # rational shapes count per size class, the reference per exponent pair
    theta_pi = None
    if shape.rationality == Fraction(1, 3) and n % 2:
        theta_pi = Fraction(1, 4)     # the doubly finite shape, residue keys
    got = orientation_census(shape, n, theta_pi).counts
    want = ref_orientation_counts(shape, n, theta_pi)
    if shape.rationality is None:
        assert list(got.items()) == list(want.items())
    else:
        assert by_size_key(shape, got) == by_size_key(shape, want)


@pytest.mark.parametrize("shape, theta_pi", [
    (shape_from_pq(1, 2), None), (shape_from_pq(2, 1), None),
    (shape_from_pq(1, 1), None), (shape_from_pq(1, 3), None),
    (shape_from_pq(1, 3), Fraction(1, 4)), (shape_from_theta(1.0), None),
], ids=["1/2", "2/1", "1/1", "1/3", "1/3-pi/4", "theta=1.0"])
def test_orientation_census_sums_to_the_pair_census(shape, theta_pi):
    def no_tail(key):
        return ()
    for n in range(31):
        got = orientation_census(shape, n, theta_pi).counts
        assert by_size_key(shape, got, no_tail) == \
            by_size_key(shape, census_counts(shape, n)[0], no_tail), n


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (2, 5), (1, 3), (5, 3)])
def test_orientation_census_keeps_one_pair_per_size_class(p, q):
    shape = shape_from_pq(p, q)
    for n in (7, 40):
        counts = orientation_census(shape, n).counts
        pairs = {(i, j) for i, j, _, _ in counts}
        assert len({shape.size_key(i, j) for i, j in pairs}) == len(pairs)
        assert all(i < q for i, _ in pairs)


@settings(max_examples=20, deadline=None)
@given(shape=shapes, i=st.integers(0, 300), j=st.integers(0, 300))
def test_size_key_is_the_fresh_key(shape, i, j):
    key = shape.size_key(i, j)
    with decimal.localcontext(decimal.Context(prec=3, traps=[decimal.Inexact])):
        assert key == ref_size_key(shape, i, j)
    assert shape.size_key(i, j) is key or shape.rationality is not None
    if shape.rationality is None:
        assert isinstance(key, Decimal)
        want = ref_mp_key(shape.theta, i, j)
        with mpmath.workdps(80):
            assert abs(mpmath.mpf(str(key)) - want) <= mpmath.mpf("1e-45") * max(want, 1)


# -- the lattice-path oracle --------------------------------------------------


def assert_oracle_is_the_reference(shape, cut, ij):
    try:
        want = ref_count_oracle(shape, cut, ij)
    except DomainError:
        with pytest.raises(DomainError):
            count_oracle(shape, cut, ij)
        return
    assert count_oracle(shape, cut, ij) == want, (shape.theta, cut, ij)


@settings(max_examples=20, deadline=None)
@given(shape=shapes, n=st.integers(0, 120))
def test_count_oracle_matches_the_reference(shape, n):
    for _, counts, min_pair in census_steps(shape, n):
        cut = shape.size_key(*min_pair)
        probes = list(counts) + [(i + 1, j) for i, j in counts] + \
            [(i, j + 2) for i, j in counts] + [(max(i - 1, 0), j) for i, j in counts]
        for ij in probes:
            assert_oracle_is_the_reference(shape, cut, ij)
            assert_oracle_is_the_reference(shape, float(cut), ij)
        for ij, cnt in counts.items():
            assert count_oracle(shape, cut, ij) == cnt


@settings(max_examples=30, deadline=None)
@given(shape=theta_shapes, i=st.integers(0, 400), j=st.integers(0, 400))
@example(shape=shape_from_theta(1.0), i=0, j=0)
@example(shape=shape_from_theta(1.0), i=387, j=211)
def test_count_oracle_at_exact_lattice_coincidences(shape, i, j):
    # s = 0 at the cut's own class; s = alpha and s = beta one step past
    # it, which are min(alpha, beta) (the window's inner bound) and mu
    # (just outside); cuts of every kind, on and off the lattice
    key = shape.size_key(i, j)
    cuts = [key, float(key), math.nextafter(float(key), math.inf),
            math.nextafter(float(key), -math.inf), round(float(key)),
            math.floor(float(key)), math.ceil(float(key))]
    offsets = ("1e-30", "-1e-30", "1e-25", "-1e-25", "1e-14", "-1e-14", "1e-9", "-1e-9")
    cuts += [KEY_CONTEXT.add(key, Decimal(d)) for d in offsets]
    with mpmath.workdps(60):
        cuts += [mpmath.mpf(str(key)) + mpmath.mpf(d) for d in offsets]
    for cut in cuts:
        for ij in [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1),
                   (max(i - 1, 0), j), (i, max(j - 1, 0)), (i + 2, j)]:
            assert_oracle_is_the_reference(shape, cut, ij)


def test_count_oracle_for_cuts_of_every_type(irr1):
    # s is 0.01 and alpha + 0.01, far inside each part, wherever doubles
    # may be read at all
    key = KEY_CONTEXT.subtract(irr1.size_key(3, 2), Decimal("0.01"))
    for cut in [key, float(key), 3, Fraction(float(key)), Fraction(key), True,
                np.float64(key), np.float32(key), np.int64(3), mpmath.mpf(str(key)),
                str(float(key)), str(key), 2 ** 1100, -2 ** 1100, math.nan, math.inf,
                -math.inf, mpmath.mpf("inf"), mpmath.mpf("nan"), Decimal("inf"),
                Decimal("-inf"), Decimal("nan"), Decimal("snan")]:
        for ij in [(3, 2), (4, 2)]:
            try:
                want = ref_count_oracle(irr1, cut, ij)
            except (DomainError, TypeError) as exc:
                with pytest.raises(type(exc)):
                    count_oracle(irr1, cut, ij)
                continue
            assert count_oracle(irr1, cut, ij) == want, cut


HOSTILE_CONTEXTS = {
    "decimal-prec3-inexact":
        lambda: decimal.localcontext(decimal.Context(prec=3, traps=[decimal.Inexact])),
    "mpmath-workprec20": lambda: mpmath.workprec(20),
}


@pytest.mark.parametrize("context", HOSTILE_CONTEXTS.values(), ids=HOSTILE_CONTEXTS)
def test_count_oracle_under_any_caller_precision_is_the_exact_comparison(context):
    # at 20 bits an mpf offset alpha - 1e-9 would round onto the bound
    # alpha, and at 3 digits a Decimal one onto the cut's own key
    shape = shape_from_theta(1.0)
    key = shape.size_key(3, 2)
    offsets = ("1e-9", "-1e-9", "1e-12", "-1e-12", "1e-30", "-1e-30")
    cuts = [KEY_CONTEXT.add(key, Decimal(d)) for d in offsets]
    cuts += [mpmath.mpf(str(key)) + mpmath.mpf(d) for d in offsets]
    probes = [(3, 2), (4, 2), (3, 3), (5, 2), (2, 2)]
    with context():
        for cut in cuts:
            for ij in probes:
                assert_oracle_is_the_reference(shape, cut, ij)


def test_the_exact_fallback_runs_at_most_twice_a_generation(irr1, monkeypatch):
    # only the cut's own class (s = 0) and the one a smaller step past it
    # (s = min(alpha, beta)) lie within the margin of a bound
    calls = []

    def counting(window, s):
        calls.append(s)
        return exact_upper(window, s)

    exact_upper = stats._exact_upper
    monkeypatch.setattr(stats, "_exact_upper", counting)
    oracle = gens = 0
    for _, counts, min_pair in census_steps(irr1, 10 ** 6):
        cut = irr1.size_key(*min_pair)
        gens += 1
        for ij, cnt in counts.items():
            oracle += 1
            assert count_oracle(irr1, cut, ij) == cnt
        if sum(counts.values()) >= 10 ** 15:
            break
    assert oracle > 40000 and len(calls) <= 2 * gens < oracle // 20


def test_threads_sharing_a_shape_get_their_own_cuts_answers():
    # every thread switches the shape's remembered cut on every call
    shape = shape_from_theta(0.9)
    steps = [(shape.size_key(*min_pair), counts)
             for _, counts, min_pair in census_steps(shape, 150)]
    wrong = []

    def sweep(order):
        for cut, counts in steps[order::4]:
            for ij, cnt in counts.items():
                if count_oracle(shape, cut, ij) != cnt:
                    wrong.append((cut, ij))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(k % 4,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []


def test_rational_shapes_never_reach_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)     # import raises
    for p, q in [(1, 2), (2, 1), (1, 3), (1, 1), (5, 3)]:
        shape = shape_from_pq(p, q)
        for _, counts, min_pair in census_steps(shape, 60):
            cut = shape.size_key(*min_pair)
            for t_cut in (cut, float(cut), Fraction(cut)):
                for ij, cnt in counts.items():
                    assert count_oracle(shape, t_cut, ij) == cnt
        with pytest.raises(DomainError):
            count_oracle(shape, 0.5, (0, 0))



def test_irrational_census_paths_never_reach_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)     # import raises
    shape = shape_from_theta(1.0)
    for _, counts, min_pair in census_steps(shape, 200):
        cut = shape.size_key(*min_pair)
        for ij, cnt in counts.items():
            assert count_oracle(shape, cut, ij) == cnt
    stats.size_comparison(shape, 200)
    assert sum(len(batch) for batch in Tn_batches(shape, 40)) == \
        sum(census_counts(shape, 40)[0].values())


def _theta_one_answers():
    """census_counts, count_oracle, size_class_ranks and the Tn_batches
    columns of theta = 1.0, on a fresh shape with its keys computed anew."""
    for cached in (geometry._alpha_beta, geometry._decimal_size_key,
                   geometry._float_size_key):
        cached.cache_clear()
    shape = shape_from_theta(1.0)
    counts, min_pair = census_counts(shape, 150)
    cut = shape.size_key(*min_pair)
    near = KEY_CONTEXT.subtract(shape.size_key(3, 2), Decimal("1e-9"))
    oracle = [count_oracle(shape, cut, ij) for ij in counts]
    oracle += [count_oracle(shape, c, ij) for c in (near, float(near))
               for ij in [(3, 2), (4, 2)]]
    columns = [[getattr(batch, name).tobytes() for name, _ in COLUMNS]
               for batch in Tn_batches(shape, 40)]
    return counts, min_pair, oracle, size_class_ranks(shape, counts), columns


def test_no_caller_context_changes_an_answer():
    want = _theta_one_answers()
    for context in HOSTILE_CONTEXTS.values():
        with context():
            assert _theta_one_answers() == want
    got = []

    def run():
        with HOSTILE_CONTEXTS["decimal-prec3-inexact"]():
            got.append(_theta_one_answers())

    with mpmath.workprec(20):       # process-wide; a decimal context is per thread
        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 2 and all(answers == want for answers in got)

# -- the size histogram past the float range ---------------------------------


def test_size_histogram_past_the_float_range(til12):
    # counts pass 2**1024 and squared areas 2**-1022 from about n = 740
    counts, _ = census_counts(til12, 800)
    assert sum(counts.values()).bit_length() > 1024
    hist = census_size_histogram(til12, 800, "count")
    per_rank = {}
    for (i, j), cnt in counts.items():
        rank = til12.size_key(i, j) - min(til12.size_key(*p) for p in counts) + 1
        per_rank[rank] = per_rank.get(rank, 0) + cnt
    total = sum(counts.values())
    want = [Fraction(per_rank[r], total) for r in sorted(per_rank)]
    assert [abs(m - float(w)) <= 1e-15 for m, w in zip(hist.masses, want)] == \
        [True] * len(want)
    area = census_size_histogram(til12, 800, "area")
    assert all(math.isfinite(m) and m > 0.0 for m in area.masses)
    assert abs(math.fsum(area.masses) - 1.0) <= 1e-12


# -- the census orientation histogram ----------------------------------------


def ref_census_orientation_histogram(shape, n, theta_pi, bins=64):
    """Cells and heading rows from exact integer rows per (size rank, hand)
    cell, in census order: each cell's share of all tiles and each bin's
    share of its cell, as exact fractions rounded once."""
    census = orientation_census(shape, n, theta_pi)
    keys = sorted({shape.size_key(i, j) for (i, j, _, _) in census.counts})
    raw = {}
    for (i, j, sign, key), cnt in census.counts.items():
        cell = (keys.index(shape.size_key(i, j)) + 1, sign)
        b = int((census.angle(key) / (2.0 * math.pi) + 1e-9) * bins) % bins
        raw.setdefault(cell, [0] * bins)[b] += cnt
    total = sum(census.counts.values())
    return ({cell: float(Fraction(sum(row), total)) for cell, row in raw.items()},
            {cell: tuple(float(Fraction(x, sum(row))) for x in row)
             for cell, row in raw.items()})


@pytest.mark.parametrize("shape, n, theta_pi", [
    (shape_from_pq(1, 2), 60, None), (shape_from_theta(1.0), 60, None),
    (shape_from_pq(1, 3), 30, Fraction(1, 4)),
], ids=["1/2", "theta=1.0", "1/3-pi/4"])
def test_census_orientation_histogram_adds_counts_key_by_key(shape, n, theta_pi):
    # at 1/2 n = 60 a bin's count passes 2**53, so float rows would round
    hist = stats.census_orientation_histogram(shape, n, theta_pi=theta_pi)
    cells, phi_bins = ref_census_orientation_histogram(shape, n, theta_pi)
    assert list(hist.cells.items()) == list(cells.items())
    assert list(hist.phi_bins.items()) == list(phi_bins.items())


# -- Brent's method -----------------------------------------------------------


def _bound_problem(shape):
    a, b = shape.alpha, shape.beta
    if a < b:
        return (lambda x: math.exp(b * x) + math.exp((b - a) * x) - 4.0), 0.0, 2.0
    f = lambda x: math.exp(a * x) + 4.0 * math.exp((a - b) * x) - 1.0   # noqa: E731
    lo = -1.0
    while f(lo) > 0.0:
        lo *= 2.0
    return f, lo, 0.0


def test_brentq_port_is_scipys_to_the_bit():
    from scipy.optimize import brentq

    shapes = [shape_from_theta(0.005 + 0.005 * k) for k in range(313)]
    # p = q = 1 has alpha = beta up to rounding: no lower bound root
    shapes += [shape_from_pq(p, q) for p in range(1, 13) for q in range(1, 13)
               if math.gcd(p, q) == 1 and p != q]
    for shape in shapes:
        f, lo, hi = _bound_problem(shape)
        want = brentq(f, lo, hi, xtol=1e-13, rtol=1e-14)
        assert _brentq(f, lo, hi, xtol=1e-13, rtol=1e-14) == want
        assert irrational_bounds(shape)["lower"] == want


def test_brentq_port_on_other_functions():
    from scipy.optimize import brentq

    for f, lo, hi in ((math.cos, 0.0, 3.0), (lambda x: x ** 3 - 2.0, 0.0, 5.0),
                      (lambda x: math.atan(x - 0.3), -10.0, 10.0),
                      (lambda x: x - 1.0, 1.0, 2.0)):
        assert _brentq(f, lo, hi, 1e-13, 1e-14) == brentq(f, lo, hi, xtol=1e-13,
                                                            rtol=1e-14)


def test_import_leaves_scipy_out():
    src = str(Path(tilelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, tilelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
