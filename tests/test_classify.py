from fractions import Fraction

import pytest

from tilelab.classify import (classify, convergents, nearest_pi_fraction,
                              orientation_census, verify_orientation_count,
                              verify_size_count)
from tilelab.errors import ArgumentError
from tilelab.stats import census_orientation_histogram, orientation_comparison
from tilelab.substitution import build_Tn


def test_classify_til12(til12):
    rep = classify(til12)
    assert rep.rationality == Fraction(1, 2)
    assert rep.size_count_predicted == 2
    assert rep.orientation_count_predicted == "infinite"
    assert not rep.is_pinwheel
    assert not rep.is_exceptional_13


def test_classify_til13(til13):
    rep = classify(til13)
    assert rep.size_count_predicted == 3
    assert rep.orientation_count_predicted == "finite"
    assert rep.is_exceptional_13
    assert rep.theta_over_pi_rational is True


def test_classify_pinwheel(pinwheel):
    rep = classify(pinwheel)
    assert rep.size_count_predicted == 1
    assert rep.is_pinwheel
    assert rep.orientation_count_predicted == "infinite"


def test_classify_irrational(irr1):
    rep = classify(irr1)
    assert rep.rationality is None
    assert rep.size_count_predicted is None
    assert rep.z_convergents
    # numerics cannot decide theta/pi rationality; without a caller
    # assertion the orientation verdict stays open
    assert rep.orientation_count_predicted == "unknown"
    assert classify(irr1, theta_pi_rational=False
                    ).orientation_count_predicted == "infinite"


def test_size_counts_on_generated_tilings(til12, til13, pinwheel, til12_T6):
    assert verify_size_count(til12_T6) == 2
    assert verify_size_count(build_Tn(til13, 6)) == 3
    assert verify_size_count(build_Tn(pinwheel, 3)) == 1


def test_orientation_counts_grow_for_til12(til12):
    counts = [verify_orientation_count(build_Tn(til12, n))
              for n in range(1, 9)]
    assert counts == [4, 7, 17, 24, 36, 42, 52, 58]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_orientation_counts_stabilize_for_til13(til13):
    counts = [verify_orientation_count(build_Tn(til13, n))
              for n in range(1, 9)]
    # 16 headings-with-handedness, reached at n=6 and held
    assert counts[-3:] == [16, 16, 16]


def test_convergents_of_z(irr1):
    conv = convergents(irr1.z, count=4)
    for num, den in conv:
        assert abs(irr1.z - num / den) < 1.0 / den
    dens = [d for _, d in conv]
    assert dens == sorted(dens)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_convergents_refuse_non_finite_input(x):
    with pytest.raises(ArgumentError):
        convergents(x)


def test_nearest_pi_fraction():
    import math
    u, v, err = nearest_pi_fraction(math.pi / 4.0)
    assert (u, v) == (1, 4)
    assert err == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("call", [orientation_census, census_orientation_histogram,
                                  orientation_comparison])
@pytest.mark.parametrize("theta_pi, message", [
    (Fraction(1, 4), r"is not \(1/4\)\*pi"),   # a census keyed by the wrong angle
    (Fraction(-1, 4), "positive Fraction"),
    (Fraction(0), "positive Fraction"),
    (0.25, "positive Fraction"),
    (Fraction(1, 2), r"is not \(1/2\)\*pi"),     # theta < pi/2 for every shape
    (Fraction(10 ** 400), r"is not \(1000*\)\*pi"),     # past the float range
], ids=["wrong-angle", "negative", "zero", "float", "half", "huge"])
def test_theta_pi_must_be_the_shapes_angle(til12, call, theta_pi, message):
    with pytest.raises(ArgumentError, match=message):
        call(til12, 3, theta_pi=theta_pi)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"), 1e308])
def test_nearest_pi_fraction_refuses_what_it_cannot_scale(theta):
    with pytest.raises(ArgumentError, match="finite"):
        nearest_pi_fraction(theta)
