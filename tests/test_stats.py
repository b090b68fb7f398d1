import json
import math
from fractions import Fraction

import pytest

from tilelab import stats
from tilelab.errors import ArgumentError, DomainError
from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.spectral import eigen
from tilelab.stats import (ComparisonReport, _size_histogram_from_counts,
                           area_fraction_limit,
                           census_orientation_histogram,
                           census_size_histogram, count_fraction_limit,
                           count_oracle, empirical_size_fraction,
                           equidistribution_frequency,
                           orientation_comparison, orientation_histogram,
                           size_comparison, size_histogram)
from tilelab.substitution import _census, _census_at, build_Tn, census_counts, census_steps


def test_count_oracle_matches_enumeration_small(til12, til2, pinwheel):
    for shape in (til12, til2, pinwheel):
        for gen, counts, min_pair in census_steps(shape, 8):
            cut = shape.size_key(*min_pair)
            for ij, want in counts.items():
                assert count_oracle(shape, cut, ij) == want, (shape, gen, ij)


def test_count_oracle_matches_enumeration_irrational(irr1):
    for gen, counts, min_pair in census_steps(irr1, 20):
        cut = irr1.size_key(*min_pair)
        for ij, want in counts.items():
            assert count_oracle(irr1, cut, ij) == want, (gen, ij)


def test_count_oracle_rejects_out_of_window(til12):
    # (0,0) sits a full window behind the cut of T_2
    with pytest.raises(DomainError):
        count_oracle(til12, til12.size_key(1, 0), (0, 0))
    with pytest.raises(ArgumentError):
        count_oracle(til12, 0, (-1, 2))


def test_size_histogram_geometry_matches_census(til12, til12_T6):
    geo = size_histogram(til12_T6, weighting="count")
    cen = census_size_histogram(til12, 6, weighting="count")
    assert geo.labels == cen.labels
    assert geo.masses == pytest.approx(cen.masses, abs=1e-12)


def test_area_weighting_is_count_reweighted(til12, til12_T6):
    cnt = size_histogram(til12_T6, weighting="count")
    area = size_histogram(til12_T6, weighting="area")
    r2 = til12.r ** 2
    raw = [m * r2 ** k for k, m in zip(cnt.labels, cnt.masses)]
    total = sum(raw)
    for got, want in zip(area.masses, raw):
        assert got == pytest.approx(want / total, abs=1e-12)


# The class walk (the census on size classes) gives the counts per lattice
# step that powers of the population matrix give.


def test_matrix_power_counts_match_census(til12, til2):
    for shape in (til12, til2):
        for n in (1, 5, 12, 30):
            ranked = _census_by_rank(shape, *_census_at(shape, n, classes=True))
            hist = census_size_histogram(shape, n, weighting="count")
            total = sum(ranked)
            for k, mass in zip(hist.labels, hist.masses):
                assert mass == pytest.approx(ranked[k - 1] / total, rel=1e-12)


COPRIME_12 = [(p, q) for p in range(1, 13) for q in range(1, 13)
              if math.gcd(p, q) == 1]


def _census_by_rank(shape, counts, min_pair):
    """Pair census counts summed per lattice step below the cut."""
    cut = shape.size_key(*min_pair)
    per_step = {}
    for (i, j), cnt in counts.items():
        d = shape.size_key(i, j) - cut
        per_step[d] = per_step.get(d, 0) + cnt
    return [per_step[d] for d in sorted(per_step)]


@pytest.mark.parametrize("p,q", COPRIME_12)
def test_matrix_power_counts_equal_the_pair_census(p, q):
    shape = shape_from_pq(p, q)
    walks = zip(census_steps(shape, 40), _census(shape, 40, classes=True))
    for (gen, counts, min_pair), (_, classes, (min_class, *_)) in walks:
        keys = {shape.size_key(i, j) for i, j in classes}
        assert len(keys) == len(classes) <= max(p, q)
        assert all(i < q for i, _ in classes)
        assert shape.size_key(*min_class) == shape.size_key(*min_pair)
        assert _census_by_rank(shape, classes, min_class) == \
            _census_by_rank(shape, counts, min_pair)


def test_matrix_power_counts_equal_the_pair_census_far_out(til12):
    counts, min_pair = census_counts(til12, 800)
    assert _census_by_rank(til12, *_census_at(til12, 800, classes=True)) == \
        _census_by_rank(til12, counts, min_pair)


def test_matrix_power_counts_rejects_bad_input(irr1, til12):
    # every exponent pair of an irrational shape is its own size class
    assert _census_at(irr1, 60, classes=True) == census_counts(irr1, 60)
    with pytest.raises(ArgumentError):
        census_size_histogram(til12, -1)


@pytest.mark.parametrize("p,q", COPRIME_12)
def test_census_histogram_equals_the_pair_census_histogram(p, q):
    shape = shape_from_pq(p, q)
    for n in (*range(0, 41, 4), 120):
        counts, _ = census_counts(shape, n)
        for weighting, tol in (("count", 1e-15), ("area", 1e-12)):
            got = census_size_histogram(shape, n, weighting)
            want = _size_histogram_from_counts(shape, counts, weighting, 64)
            assert got.labels == want.labels
            assert max(abs(a - b) for a, b in zip(got.masses, want.masses)) <= tol


def test_size_comparison_converges_to_rho(til12):
    rep = size_comparison(til12, 30, weighting="area")
    assert rep.metric == "l1"
    assert rep.value < 1e-5
    assert rep.passed
    rho = eigen(til12).rho
    assert rep.analytic == pytest.approx(rho, abs=1e-12)


def test_size_comparison_converges_to_nu(til12):
    rep = size_comparison(til12, 30, weighting="count")
    assert rep.analytic == pytest.approx(eigen(til12).nu, abs=1e-12)
    assert rep.value < 1e-4


def test_size_comparison_irrational_uses_cdf_metric(irr1):
    rep = size_comparison(irr1, 60, weighting="area")
    assert rep.metric == "cdf_sup"
    assert 0.0 <= rep.value <= 1.0


def test_orientation_deviation_decreases(til12):
    devs = [census_orientation_histogram(til12, n).max_deviation()
            for n in (8, 12, 16)]
    assert devs[0] > devs[1] > devs[2]


def test_orientation_histogram_geometry_matches_census(til12):
    t = build_Tn(til12, 8)
    geo = orientation_histogram(t)
    cen = census_orientation_histogram(til12, 8)
    assert geo.max_deviation() == pytest.approx(cen.max_deviation(), abs=1e-12)
    assert geo.pooled() == pytest.approx(cen.pooled(), abs=1e-12)


def test_orientation_comparison_report(til12):
    rep = orientation_comparison(til12, 12)
    assert rep.metric == "l1"
    assert len(rep.analytic) == len(rep.empirical)
    # uniform target
    assert rep.analytic == pytest.approx([1.0 / len(rep.analytic)]
                                         * len(rep.analytic))


def test_fraction_limits_normalize(five_shapes):
    for shape in five_shapes.values():
        full = (0.0, shape.mu)
        assert area_fraction_limit(shape, full) == pytest.approx(1.0, abs=1e-12)
        assert count_fraction_limit(shape, full) == pytest.approx(1.0, abs=1e-9)


def test_fraction_limits_are_additive(irr1):
    mid = irr1.mu / 3.0
    left = area_fraction_limit(irr1, (0.0, mid))
    right = area_fraction_limit(irr1, (mid, irr1.mu))
    assert left + right == pytest.approx(1.0, abs=1e-12)


def test_empirical_interval_fraction_converges(irr1):
    iv = (0.0, irr1.mu / 2.0)
    want = area_fraction_limit(irr1, iv)
    got = empirical_size_fraction(irr1, 400, iv, weighting="area")
    assert abs(got - want) < 0.05


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5)])
def test_empirical_size_fraction_measures_offsets_in_size_units(p, q):
    # rational classes sit lattice_unit apart; interval ends halfway between
    shape = shape_from_pq(p, q)
    area = census_size_histogram(shape, 40, "area").masses
    assert len(area) == max(p, q)   # one class per lattice step of the window
    u = shape.lattice_unit
    for d, mass in enumerate(area):
        iv = (max(d - 0.5, 0.0) * u, (d + 0.5) * u)
        assert empirical_size_fraction(shape, 40, iv) == pytest.approx(mass, abs=1e-12)
    assert empirical_size_fraction(shape, 40, (shape.mu - u / 2, shape.mu + u / 2)) == 0.0
    if (p, q) == (1, 2):
        assert empirical_size_fraction(shape, 40, (0.2, 0.6)) == \
            pytest.approx(0.3787, abs=1e-4)


def test_equidistribution():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for lo, hi in [(0.2, 0.5), (0.0, 0.1), (0.37, 0.83)]:
        freq = equidistribution_frequency(golden, lo, hi)
        assert freq == pytest.approx(hi - lo, abs=0.01)
    with pytest.raises(ArgumentError):
        equidistribution_frequency(golden, 0.5, 0.2)


def test_comparison_report_serialization():
    rep = ComparisonReport(name="toy", weighting="area",
                           labels=(1, 2), analytic=(0.75, 0.25),
                           empirical=(0.7, 0.3), tolerance=0.2)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "bin,analytic,empirical,abs_error"
    assert len(lines) == 3
    data = rep.to_json()
    assert data["passed"] is True
    assert data["value"] == pytest.approx(0.1)
    json.dumps(data)  # must be serializable as-is


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0,
                                       "0.1", None])
def test_comparison_tolerance_must_be_finite_and_non_negative(til12, tolerance):
    with pytest.raises(ArgumentError, match="tolerance"):
        ComparisonReport(name="toy", weighting="area", labels=(1,),
                         analytic=(1.0,), empirical=(1.0,), tolerance=tolerance)
    with pytest.raises(ArgumentError, match="tolerance"):
        size_comparison(til12, 3, tolerance=tolerance)
    assert ComparisonReport(name="toy", weighting="area", labels=(1,),
                            analytic=(1.0,), empirical=(1.0,),
                            tolerance=0).passed is False


def test_count_oracle_spot_values(til12):
    assert count_oracle(til12, 0, (0, 0)) == 1
    # T_1 cut sits at the B key; four half-rectangle daughters
    assert count_oracle(til12, til12.size_key(0, 1), (0, 1)) == 4
    # (1,1) lands in the upper window where the last step is pinned
    assert count_oracle(til12, til12.size_key(2, 0), (1, 1)) == 4


def test_size_histogram_degenerate_cases(til12, pinwheel):
    root = size_histogram(build_Tn(til12, 0))
    assert root.masses == (1.0,)
    for n in (0, 2, 3):
        h = size_histogram(build_Tn(pinwheel, n))
        assert h.masses == (1.0,)


def test_fraction_limit_below_the_first_break():
    # under min(alpha, beta) both terms of the density are alive
    for shape in (shape_from_theta(1.0), shape_from_theta(math.pi / 3)):
        mn = min(shape.alpha, shape.beta)
        expected = ((shape.a ** 2 + shape.b ** 2) * mn
                    / (shape.a ** 2 * shape.alpha + shape.b ** 2 * shape.beta))
        assert area_fraction_limit(shape, (0.0, mn)) == pytest.approx(
            expected, rel=1e-12)


def test_fraction_limits_discretize_to_the_rational_answer(til12):
    """Cutting [0, mu) at the class boundary reproduces the eigenvector
    frequencies: integral form and matrix form agree exactly."""
    rep = eigen(til12)
    alpha, beta = til12.alpha, til12.beta
    assert area_fraction_limit(til12, (0.0, alpha)) == pytest.approx(
        rep.rho[0], rel=1e-12)
    assert area_fraction_limit(til12, (alpha, beta)) == pytest.approx(
        rep.rho[1], rel=1e-12)
    assert count_fraction_limit(til12, (0.0, alpha)) == pytest.approx(
        rep.nu[0], rel=1e-12)
    assert count_fraction_limit(til12, (alpha, beta)) == pytest.approx(
        rep.nu[1], rel=1e-12)


def test_orientation_histogram_first_generation(til12):
    h = orientation_histogram(build_Tn(til12, 1))
    # five tiles in four (hand, phi) classes: the mirrored pair doubles up
    weights = []
    for key, bins in h.phi_bins.items():
        for x in bins:
            if x > 0:
                weights.append(h.cells[key] * x)
    assert sorted(weights) == pytest.approx([0.2, 0.2, 0.2, 0.4])


def test_til13_orientations_stay_concentrated(til13):
    """Sixteen heading classes forever; mass 1 on at most 16 of 64 bins
    forces a pooled bin to at least 1/16 by pigeonhole."""
    h = orientation_histogram(build_Tn(til13, 6))
    pooled = h.pooled()
    assert sum(1 for x in pooled if x > 0) <= 16
    assert h.max_deviation() > 1.0 / 16.0 - 1.0 / h.bins


@pytest.mark.parametrize("call", [
    lambda: census_counts(shape_from_pq(1, 2), -1),
    lambda: list(census_steps(shape_from_pq(1, 2), -1)),
    lambda: census_size_histogram(shape_from_theta(1.0), -1),
    lambda: empirical_size_fraction(shape_from_theta(1.0), -1, (0, 0.1)),
], ids=["census_counts", "census_steps", "census_size_histogram",
        "empirical_size_fraction"])
def test_negative_census_generation_is_an_argument_error(call):
    with pytest.raises(ArgumentError, match="generation must be non-negative, got -1"):
        call()


@pytest.mark.parametrize("shape", [shape_from_pq(1, 2), shape_from_theta(1.0)],
                         ids=["1/2", "theta=1.0"])
def test_census_size_histogram_refuses_a_weighting_before_the_walk(shape, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the census walked")
    monkeypatch.setattr(stats, "_census_at", walk)
    with pytest.raises(ArgumentError, match="unknown weighting 'volume'"):
        census_size_histogram(shape, 10 ** 6, "volume")


_EARLY_REFUSALS = {
    "size_comparison-tolerance": (
        lambda shape: size_comparison(shape, 10 ** 6, tolerance=-1.0),
        "tolerance must be a finite number >= 0, got -1.0"),
    "size_comparison-weighting": (
        lambda shape: size_comparison(shape, 10 ** 6, weighting="volume"),
        "unknown weighting 'volume'"),
    "size_comparison-bins": (
        lambda shape: size_comparison(shape, 10 ** 6, bins=0),
        "bins must be an integer >= 1, got 0"),
    "orientation_comparison-tolerance": (
        lambda shape: orientation_comparison(shape, 10 ** 6, tolerance=math.nan),
        "tolerance must be a finite number >= 0, got nan"),
    "orientation_comparison-bins": (
        lambda shape: orientation_comparison(shape, 10 ** 6, bins=True),
        "bins must be an integer >= 1, got True"),
    "empirical_size_fraction-weighting": (
        lambda shape: empirical_size_fraction(shape, 10 ** 6, (0, 0.1), "volume"),
        "unknown weighting 'volume'"),
    "empirical_size_fraction-interval": (
        lambda shape: empirical_size_fraction(shape, 10 ** 6, (0, "0.1")),
        r"interval must be a pair of numbers, got \(0, '0.1'\)"),
    "empirical_size_fraction-interval-nan": (
        lambda shape: empirical_size_fraction(shape, 10 ** 6, (math.nan, 1.0)),
        r"interval must be a pair of numbers, got \(nan, 1.0\)"),
    "empirical_size_fraction-not-a-pair": (
        lambda shape: empirical_size_fraction(shape, 10 ** 6, 0.5),
        "interval must be a pair of numbers, got 0.5"),
}


@pytest.mark.parametrize("shape", [shape_from_pq(1, 2), shape_from_theta(1.0)],
                         ids=["1/2", "theta=1.0"])
@pytest.mark.parametrize("case", sorted(_EARLY_REFUSALS))
def test_comparisons_refuse_bad_arguments_before_the_walk(case, shape, monkeypatch):
    # at n = 10**6 a walk would not end: each refusal must come first
    def walk(*args, **kwargs):
        raise AssertionError("the census walked")
    monkeypatch.setattr(stats, "_census_at", walk)
    monkeypatch.setattr(stats, "orientation_census", walk)
    call, message = _EARLY_REFUSALS[case]
    with pytest.raises(ArgumentError, match=message):
        call(shape)


def test_a_valid_interval_still_walks(til12):
    # the interval check takes any real numbers, Fractions and infinities too
    assert empirical_size_fraction(til12, 12, (Fraction(0), math.inf)) == 1.0
    assert empirical_size_fraction(til12, 12, (0.6, 0.2)) == 0.0


_BIN_CALLS = {
    "size_histogram": lambda b: size_histogram(build_Tn(shape_from_theta(1.0), 12),
                                               bins=b),
    "size_histogram-rational": lambda b: size_histogram(
        build_Tn(shape_from_pq(1, 2), 3), bins=b),
    "orientation_histogram": lambda b: orientation_histogram(
        build_Tn(shape_from_pq(1, 2), 3), bins=b),
    "census_size_histogram": lambda b: census_size_histogram(
        shape_from_theta(1.0), 12, bins=b),
    "census_orientation_histogram": lambda b: census_orientation_histogram(
        shape_from_pq(1, 2), 4, bins=b),
    "size_comparison": lambda b: size_comparison(shape_from_theta(1.0), 12, bins=b),
    "orientation_comparison": lambda b: orientation_comparison(
        shape_from_pq(1, 2), 4, bins=b),
}


@pytest.mark.parametrize("name", list(_BIN_CALLS))
def test_histograms_refuse_bins_below_one(name):
    call = _BIN_CALLS[name]
    for bad in (0, -3, 2.5, True, "8", None):
        with pytest.raises(ArgumentError, match="bins must be an integer >= 1"):
            call(bad)
    call(1)   # the least valid value


@pytest.mark.parametrize("ratio", [math.inf, -math.inf, math.nan])
def test_equidistribution_refuses_a_non_finite_ratio(ratio):
    with pytest.raises(ArgumentError, match="ratio must be finite"):
        equidistribution_frequency(ratio, 0.1, 0.5)


def test_equidistribution_needs_a_sample():
    with pytest.raises(ArgumentError):
        equidistribution_frequency(0.3, 0.1, 0.5, n_samples=0)
    assert equidistribution_frequency(0.3, 0.1, 0.5, n_samples=1) == 1.0


@pytest.mark.parametrize("ratio", [2.0 ** 52 - 0.5, -(2.0 ** 52 - 0.5)])
def test_equidistribution_keeps_the_fraction_of_a_large_ratio(ratio):
    # k * ratio passes 2**52, where a float holds no fraction any more
    n = 1000
    exact = sum(Fraction(1, 4) <= k * Fraction(ratio) % 1 < Fraction(3, 4)
                for k in range(1, n + 1)) / n
    assert exact == 0.5
    assert equidistribution_frequency(ratio, 0.25, 0.75, n_samples=n) == exact


def test_the_oracle_does_not_depend_on_the_first_calls_precision():
    # the window once kept its bounds rounded at the precision of the
    # shape's first call: after a first call at 20 bits this gave 240
    import mpmath

    def call(shape):
        return count_oracle(shape, shape.size_key(3, 2) - 1e-9, (4, 2))

    at_20 = []
    for first_at_20 in (False, True):
        shape = shape_from_theta(1.0)
        assert getattr(shape, "_oracle", None) is None
        if first_at_20:
            with mpmath.workprec(20):
                at_20.append(call(shape))
        assert call(shape) == 80
        with mpmath.workprec(20):
            at_20.append(call(shape))
    assert at_20[0] == at_20[1] == at_20[2]


# -- the float paths that replaced numpy's, against numpy ----------------------


def test_pairwise_total_sums_in_numpys_order():
    import random

    import numpy as np
    rng = random.Random(29)
    for trial in range(3000):
        scale = 10.0 ** rng.randint(-30, 30) if trial % 2 else 1.0
        values = [rng.random() * scale for _ in range(rng.randint(1, 300))]
        assert stats._pairwise_total(values) == float(np.asarray(values).sum())


def test_census_statistics_match_their_numpy_forms(til12, irr1):
    import numpy as np
    hist = census_orientation_histogram(til12, 12, bins=7)
    acc = np.zeros(hist.bins)
    for cell, weight in hist.cells.items():
        acc += weight * np.asarray(hist.phi_bins[cell])
    assert hist.pooled() == tuple(acc.tolist())
    assert hist.max_deviation() == float(np.abs(acc - 1.0 / hist.bins).max())
    report = size_comparison(irr1, 60, "count", bins=200)
    assert report.metric == "cdf_sup"
    cdf_gap = np.abs(np.cumsum(report.analytic) - np.cumsum(report.empirical))
    assert report.value == float(cdf_gap.max())
