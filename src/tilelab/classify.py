"""Finiteness classification of sizes and orientations, plus exact
orientation bookkeeping.

Two independent dichotomies govern a shape: the number of tile sizes is
finite exactly when z = alpha/beta is rational (and then equals
max(p, q) once past the startup transient), while the number of tile
orientations is finite exactly when theta is a rational multiple of pi.
Among the rational-z shapes only (p, q) = (1, 3), the theta = pi/4
triangle, has both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ArgumentError
from .geometry import TWO_PI, TriangleShape, wrap_angle
from .substitution import Tiling, _census

ANGLE_TOL = 1e-9


class ClassificationReport(NamedTuple):
    z: float
    rationality: Fraction | None
    theta_over_pi_rational: bool | None
    size_count_predicted: int | None       # None: grows without bound
    orientation_count_predicted: str       # "finite" | "infinite" | "unknown"
    is_pinwheel: bool
    is_exceptional_13: bool
    z_convergents: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        data = self._asdict()
        if self.rationality is not None:
            data["rationality"] = {"p": self.rationality.numerator,
                                   "q": self.rationality.denominator}
        if self.size_count_predicted is None:
            data["size_count_predicted"] = "infinite"
        data["z_convergents"] = [list(pq) for pq in self.z_convergents]
        return data


def convergents(x: float, count: int = 3, max_den: int = 10 ** 6) -> list[tuple[int, int]]:
    """The last ``count`` continued-fraction convergents p/q of ``x``
    with q below ``max_den`` (closest approximations first dropped)."""
    if count < 1:
        raise ArgumentError("count must be positive")
    if not math.isfinite(x):
        raise ArgumentError(f"x must be finite, got {x}")
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    out = []
    rest = x
    for _ in range(64):
        a = math.floor(rest)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if k > max_den:
            break
        out.append((h, k))
        frac = rest - a
        if frac < 1e-15:
            break
        rest = 1.0 / frac
    return out[-count:]


def nearest_pi_fraction(theta: float, max_den: int = 100) -> tuple[int, int, float]:
    """Best approximation of theta by k*pi/n with n <= max_den.

    Returns (k, n, error).  A falsification device: error above a strict
    tolerance rules the shape out of the finite-orientation class up to
    that denominator, it never certifies rationality.
    """
    if not math.isfinite(theta * max_den):
        raise ArgumentError(f"theta * max_den must be finite, got theta = {theta}")
    best = (0, 1, abs(theta))
    for n in range(1, max_den + 1):
        k = round(theta * n / math.pi)
        err = abs(theta - k * math.pi / n)
        if err < best[2]:
            best = (k, n, err)
    return best


def classify(shape: TriangleShape,
             theta_pi_rational: bool | None = None) -> ClassificationReport:
    """Classification invariants of a shape.

    Rationality of z is taken from the shape (an input fact, never
    inferred from floats).  Rationality of theta/pi cannot be decided
    numerically either, so it is caller-asserted; without an assertion it
    is deduced where possible: among rational-z shapes only (1, 3) has it.
    """
    rat = shape.rationality
    if rat is not None:
        p, q = rat.numerator, rat.denominator
        size_count = max(p, q)
        conv: tuple[tuple[int, int], ...] = ()
    else:
        size_count = None
        conv = tuple(convergents(shape.z))

    is_13 = abs(shape.theta - math.pi / 4.0) <= ANGLE_TOL
    tpr = theta_pi_rational
    if tpr is None:
        if is_13:
            tpr = True
        elif rat is not None:
            tpr = False       # the (1,3) shape is the only rational-z exception

    if tpr is True:
        orient = "finite"
    elif tpr is False:
        orient = "infinite"
    else:
        orient = "unknown"

    return ClassificationReport(
        z=shape.z,
        rationality=rat,
        theta_over_pi_rational=tpr,
        size_count_predicted=size_count,
        orientation_count_predicted=orient,
        is_pinwheel=abs(shape.b - 2.0 * shape.a) <= ANGLE_TOL * shape.c,
        is_exceptional_13=is_13,
        z_convergents=conv,
    )


def verify_size_count(t: Tiling) -> int:
    """Number of distinct size classes present in the tiling."""
    return len(t.size_keys())


def verify_orientation_count(t: Tiling) -> int:
    """Number of distinct (handedness, heading) pairs in the tiling.

    Headings within ANGLE_TOL of each other (on the circle) count once.
    """
    import numpy as np
    total = 0
    for hand in (1, -1):
        phis = np.unique(t.phi[t.handedness == hand])
        if not len(phis):
            continue
        clusters = 1 + int((np.diff(phis) > ANGLE_TOL).sum())
        if clusters > 1 and (phis[0] + TWO_PI) - phis[-1] <= ANGLE_TOL:
            clusters -= 1  # first and last meet across the 0/2pi seam
        total += clusters
    return total


# -- exact orientation census -------------------------------------------------

class OrientationCensus(NamedTuple):
    """Exact tile counts keyed by size class and orientation.

    ``counts`` maps ``(i, j, sign, angle_key)`` to an integer count.  The
    pair (i, j) stands for a size class: on a rational shape p/q it is the
    one pair of its size key i*p + j*q with i < q, and the count sums every
    exponent pair of that key; on an irrational shape each exponent pair is
    its own class.  When theta/pi is irrational the angle key is ``(k, l)``
    with the heading k*theta + l*(pi/2), l reduced mod 4 (distinct keys are
    then distinct headings).  When theta = (u/v)*pi the key is the single
    residue ``(m,)`` with heading m*pi/(2v), m reduced mod 4v.
    """

    shape: TriangleShape
    n: int
    theta_pi: Fraction | None
    counts: dict

    def angle(self, key: tuple) -> float:
        if self.theta_pi is None:
            k, l = key
            return wrap_angle(k * self.shape.theta + l * (math.pi / 2.0))
        v = self.theta_pi.denominator
        return wrap_angle(key[0] * math.pi / (2.0 * v))


def check_theta_pi(shape: TriangleShape, theta_pi) -> None:
    """ArgumentError unless ``theta_pi`` is None or a positive Fraction
    with theta = theta_pi * pi for this shape (within ANGLE_TOL)."""
    if theta_pi is None:
        return
    if not isinstance(theta_pi, Fraction) or theta_pi <= 0:
        raise ArgumentError(f"theta_pi must be a positive Fraction, got {theta_pi}")
    # theta < pi/2, and a larger fraction may not fit a float
    if theta_pi >= Fraction(1, 2) or \
            abs(shape.theta - float(theta_pi) * math.pi) > ANGLE_TOL:
        raise ArgumentError(f"theta = {shape.theta!r} is not ({theta_pi})*pi")


def _canon_angle(k: int, l: int, theta_pi: Fraction | None) -> tuple:
    if theta_pi is None:
        return (k, l % 4)
    u, v = theta_pi.numerator, theta_pi.denominator
    return ((2 * k * u + l * v) % (4 * v),)


def orientation_census(shape: TriangleShape, n: int,
                       theta_pi: Fraction | None = None) -> OrientationCensus:
    """Evolve exact orientation-and-size counts through ``n`` deflations.

    Pure integer bookkeeping, no geometry: feasible far beyond the point
    where materializing tiles is.  Cross-checked against built tilings in
    the tests.  ``theta_pi``, when given, is theta/pi for this shape
    (``check_theta_pi``) and keys headings by residue.
    """
    check_theta_pi(shape, theta_pi)
    # Increments compose with the reductions (l mod 4, m mod 4v), so the
    # canonical keys can be evolved directly.
    if theta_pi is None:
        def turn(key, sign, dk, dl):
            k, l = key
            return (k + sign * dk, (l + sign * dl) % 4)
    else:
        u, v = theta_pi.numerator, theta_pi.denominator
        mod = 4 * v

        def turn(key, sign, dk, dl):
            return ((key[0] + sign * (2 * dk * u + dl * v)) % mod,)
    # relative pose of each daughter: handedness factor and the heading
    # increment k*theta + l*(pi/2) as an integer pair
    deltas = [(f.handedness, f.k, f.l) for f in shape.daughter_frames()]

    def turns(tail):
        sign, angle = tail
        return [(sign * dsign, turn(angle, sign, dk, dl))
                for dsign, dk, dl in deltas]
    root = {(0, 0, 1, _canon_angle(0, 0, theta_pi)): 1}
    for n, counts, _ in _census(shape, n, root, turns, classes=True):
        pass
    return OrientationCensus(shape=shape, n=n, theta_pi=theta_pi, counts=counts)
