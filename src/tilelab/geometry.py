"""Prototile metric data, similarity placements, and vertex realization.

The prototile is a right triangle: altitude leg ``a``, base ("long") leg
``b``, hypotenuse ``c``, and ``theta = asin(a/c)`` the acute angle between
base and hypotenuse.  Derived quantities:

* ``A = a/c`` and ``B = b/2c`` are the two linear contraction factors of
  the subdivision rule (one daughter scaled by ``A``, four by ``B``).
* ``alpha = -ln A`` and ``beta = -ln B`` turn scales into an additive size
  parameter: a tile with exponent pair ``(i, j)`` has linear scale
  ``exp(-(i*alpha + j*beta))`` relative to the root.
* ``z = alpha/beta``.  When ``z = p/q`` in lowest terms all tile sizes lie
  on the arithmetic lattice generated by ``r = A**(1/p) = B**(1/q)`` and at
  most ``max(p, q)`` sizes coexist; such shapes carry
  ``rationality = Fraction(p, q)``.  Otherwise sizes never repeat.

A placement records handedness (reflection class), the heading ``phi`` of
the ray from the small-angle vertex to the right-angle vertex, the position
of the small-angle vertex, and the exact exponent pair.  In the canonical
pose (handedness ``+1``, ``phi = 0``, origin ``(0, 0)``) the vertices are
``(0, 0)``, ``(b, 0)`` and ``(b, a)``; handedness ``-1`` mirrors across the
reference ray before rotating.
"""

from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ArgumentError, DomainError, GeometryError, NumericError

TWO_PI = 2.0 * math.pi

# Every operation on an irrational size key rounds here, never in the thread's context.
KEY_DIGITS = 50
KEY_CONTEXT = decimal.Context(prec=KEY_DIGITS, rounding=decimal.ROUND_HALF_EVEN)


def wrap_angle(phi: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        phi -= TWO_PI
    return phi


def wrap_angles(phi: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of every entry, with the same float results."""
    import numpy as np
    phi = np.fmod(phi, TWO_PI)
    phi = np.where(phi < 0.0, phi + TWO_PI, phi)
    return np.where(phi >= TWO_PI, phi - TWO_PI, phi)


def cos_sin(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``math.cos`` and ``math.sin`` of every entry, evaluated once per
    distinct value.  numpy's vectorized cos/sin are not guaranteed to
    round like the C library's, and the per-tile placements were defined
    by the latter."""
    import numpy as np
    bits, inverse = np.unique(np.ascontiguousarray(phi, dtype=np.float64)
                              .view(np.int64), return_inverse=True)
    values = bits.view(np.float64).tolist()
    cos = np.array([math.cos(v) for v in values], dtype=np.float64)
    sin = np.array([math.sin(v) for v in values], dtype=np.float64)
    return cos[inverse], sin[inverse]


def apply_columns(point: tuple[float, float], handedness: np.ndarray,
                  cos_phi: np.ndarray, sin_phi: np.ndarray, scale: np.ndarray,
                  tx: np.ndarray, ty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Similarity.apply` of one point under one similarity per row,
    in the same IEEE operation order (so with the same float results)."""
    import numpy as np
    x, y = point
    y = np.where(handedness < 0, -y, y)
    return (tx + scale * (x * cos_phi - y * sin_phi),
            ty + scale * (x * sin_phi + y * cos_phi))


@lru_cache(maxsize=64)
def _alpha_beta(theta: float) -> tuple[Decimal, Decimal]:
    """alpha = -ln sin(theta) and beta = ln(2 / cos(theta)) from the Taylor
    series of cos t and sin(t) / t in x = t**2, t = Decimal(theta) the double
    exactly, at P = 2 * KEY_DIGITS digits (unit round-off u = 10**(1 - P) / 2),
    each rounded once into KEY_CONTEXT.  Proof of the bound: x < 2.47, so the
    ratio of the terms of t**(n + 2) and t**n, x / ((n + 1)(n + 2)), is below
    2.47/6 for the sine and, past its first term, 2.47/12 for the cosine: both
    series alternate with falling terms, and stopping at a term below 10**-P
    (never the first, 1) truncates by less than it.  The k-th term carries 2k
    roundings and x's k times, so is off by 3k u of it at most, and sum_k k x**k
    / (2k)! < 1.9; the N <= 40 additions add u each (partial sums lie in [-1,
    1]).  So each sum is within (N + 6) u + 10**-P < 10**(3 - P); as sin(t) / t
    > 2/pi, sin t is within 2 * 10**(3 - P) relatively, cos t absolutely within
    10**(3 - P).  ln is correctly rounded: alpha is within 5 * 10**(3 - P) + u *
    alpha, beta within 2 * 10**(3 - P) / cos(theta) + u * beta.  A double theta
    below pi/2 has cos(theta) > 6.1e-17, alpha > 1.8e-33 and beta > ln 2, so
    both are correct to 1e-60 relatively before the final rounding.
    """
    work = decimal.Context(prec=2 * KEY_DIGITS, rounding=decimal.ROUND_HALF_EVEN)
    t = Decimal(theta)
    x, stop = work.multiply(t, t), Decimal(f"1e-{work.prec}")
    sums = []
    for n in (0, 1):        # cos t, then sin(t) / t
        total, term = Decimal(0), Decimal(1)
        while term.copy_abs() >= stop:
            total = work.add(total, term)
            term = work.minus(work.divide(work.multiply(term, x), (n + 1) * (n + 2)))
            n += 2
        sums.append(total)
    return (KEY_CONTEXT.minus(work.ln(work.multiply(t, sums[1]))),
            KEY_CONTEXT.plus(work.ln(work.divide(2, sums[0]))))


@lru_cache(maxsize=1 << 14)
def _decimal_size_key(theta: float, i: int, j: int) -> Decimal:
    alpha, beta = _alpha_beta(theta)
    return KEY_CONTEXT.fma(i, alpha, KEY_CONTEXT.multiply(j, beta))


@lru_cache(maxsize=1 << 14)
def _float_size_key(theta: float, i: int, j: int) -> float:
    """The irrational size key rounded to a double."""
    return float(_decimal_size_key(theta, i, j))


class DaughterFrame(NamedTuple):
    """Pose of one daughter relative to an upright, unit-scale parent.

    ``phi = k*theta + l*(pi/2)`` is kept in integer form so orientation
    bookkeeping can stay exact; ``origin`` is the daughter's small-angle
    vertex in the parent's canonical frame.
    """

    handedness: int
    k: int
    l: int
    origin: tuple[float, float]
    exp_delta: tuple[int, int]

    def phi(self, theta: float) -> float:
        return wrap_angle(self.k * theta + self.l * (math.pi / 2.0))


class _ShapeFields(NamedTuple):
    a: float
    b: float
    c: float
    theta: float
    A: float
    B: float
    alpha: float
    beta: float
    z: float
    mu: float
    rationality: Fraction | None = None
    r: float | None = None


class TriangleShape(_ShapeFields):
    # no __slots__: the instance dict keeps the per-shape caches
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.theta < math.pi / 2.0):
            raise DomainError(f"theta must lie strictly inside (0, pi/2), got {self.theta}")
        if self.c <= 0.0 or self.a <= 0.0 or self.b <= 0.0:
            raise GeometryError("degenerate triangle: all sides must be positive")
        return self

    # -- size bookkeeping ------------------------------------------------

    def size_value(self, i: int, j: int) -> float:
        """Additive size parameter of a tile with exponents (i, j)."""
        return i * self.alpha + j * self.beta

    def size_key(self, i: int, j: int):
        """Exactly comparable key ordering tiles by size (small key = big tile).

        Rational shapes compare on the integer lattice i*p + j*q; irrational
        shapes on Decimals of KEY_DIGITS digits, each computed once (a
        census asks for the same few hundred keys again and again).
        """
        if self.rationality is not None:
            return i * self.rationality.numerator + j * self.rationality.denominator
        return _decimal_size_key(self.theta, i, j)

    @property
    def lattice_unit(self) -> float:
        """Size-parameter step per unit of the rational key (alpha/p)."""
        if self.rationality is None:
            raise DomainError("size lattice exists only for rational shapes")
        return self.alpha / self.rationality.numerator

    def scale(self, i: int, j: int) -> float:
        s = self.A**i * self.B**j
        if s <= 0.0:
            raise GeometryError(f"tile scale underflowed at exponents ({i}, {j})")
        return s

    # -- the five-daughter frame table -----------------------------------

    def daughter_frames(self) -> tuple[DaughterFrame, ...]:
        """Relative poses of the five daughters.

        Dropping the altitude foot F from the right-angle vertex onto the
        hypotenuse cuts the tile into a piece whose hypotenuse is the a-leg
        (the lone A-daughter) and a piece whose hypotenuse is the b-leg.
        The latter splits into four half-scale copies: two corner copies,
        plus the mid rectangle cut along the diagonal from F to the b-leg
        midpoint.  Emission order: corner at the right angle, corner at the
        small angle, the two rectangle halves, then the A-daughter.
        """
        frames = getattr(self, "_frames", None)
        if frames is None:
            a, b, c = self.a, self.b, self.c
            foot = (b * b * b / (c * c), a * b * b / (c * c))
            frames = (
                DaughterFrame(-1, 1, 0, (b / 2.0, 0.0), (0, 1)),
                DaughterFrame(-1, 1, 0, (0.0, 0.0), (0, 1)),
                DaughterFrame(+1, 1, 0, (b / 2.0, 0.0), (0, 1)),
                DaughterFrame(+1, 1, 2, foot, (0, 1)),
                DaughterFrame(-1, 1, 1, (b, 0.0), (1, 0)),
            )
            self._frames = frames
        return frames

    def daughter_columns(self) -> dict:
        """The fields of :meth:`daughter_frames` as read-only arrays, one
        entry per daughter in the same order: ``handedness``, ``phi`` at
        this shape's theta, origin ``x`` and ``y``, and exponent steps
        ``di`` and ``dj``."""
        columns = getattr(self, "_frame_columns", None)
        if columns is None:
            import numpy as np
            frames = self.daughter_frames()
            columns = {
                "handedness": [f.handedness for f in frames],
                "phi": [f.phi(self.theta) for f in frames],
                "x": [f.origin[0] for f in frames],
                "y": [f.origin[1] for f in frames],
                "di": [f.exp_delta[0] for f in frames],
                "dj": [f.exp_delta[1] for f in frames],
            }
            for name, values in columns.items():
                columns[name] = np.array(values)
                columns[name].flags.writeable = False
            self._frame_columns = columns
        return columns

    def to_json(self) -> dict:
        data = self._asdict()
        if self.rationality is not None:
            data["rationality"] = {
                "p": self.rationality.numerator,
                "q": self.rationality.denominator,
            }
        return data


def shape_from_theta(theta: float, c: float = 1.0,
                     rationality: Fraction | None = None) -> TriangleShape:
    """Build the shape with the given small angle and hypotenuse length.

    ``rationality`` is a caller assertion that alpha/beta equals the given
    fraction exactly; it is not (and cannot be) inferred from the float.
    """
    if not (0.0 < theta < math.pi / 2.0):
        raise DomainError(f"theta must lie strictly inside (0, pi/2), got {theta}")
    if c <= 0.0:
        raise DomainError(f"hypotenuse must be positive, got {c}")
    # areas and the statistics square c: keep c*c a finite normal float
    if not (math.isfinite(c * c) and c * c >= sys.float_info.min):
        raise DomainError(f"hypotenuse {c} is out of range: c*c must be a "
                          "finite normal float")
    big_a = math.sin(theta)
    big_b = math.cos(theta) / 2.0
    alpha = -math.log(big_a)
    beta = -math.log(big_b)
    r = None
    if rationality is not None:
        if rationality.numerator <= 0 or rationality.denominator <= 0:
            raise ArgumentError("rationality must be a positive fraction")
        r = math.exp(-alpha / rationality.numerator)
    return TriangleShape(
        a=c * big_a,
        b=c * math.cos(theta),
        c=c,
        theta=theta,
        A=big_a,
        B=big_b,
        alpha=alpha,
        beta=beta,
        z=alpha / beta,
        mu=max(alpha, beta),
        rationality=rationality,
        r=r,
    )


def shape_from_pq(p: int, q: int, c: float = 1.0) -> TriangleShape:
    """Shape whose size-ratio exponent z = alpha/beta equals p/q exactly.

    Solved by bisection on theta: q*ln(sin t) - p*ln(cos(t)/2) is strictly
    increasing on (0, pi/2) and changes sign, so the root is unique.  It
    lies near 2**-(p/q) when p/q is large; a root below the smallest
    normal float is refused.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ArgumentError("p and q must be integers")
    if p <= 0 or q <= 0:
        raise ArgumentError(f"p and q must be positive, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ArgumentError(f"p/q must be in lowest terms, got ({p}, {q})")
    try:    # g converts them
        float(max(p, q))
    except OverflowError:
        raise DomainError("p and q must be within the float range") from None

    def g(t: float) -> float:
        return q * math.log(math.sin(t)) - p * math.log(math.cos(t) / 2.0)

    lo, hi = 1e-9, math.pi / 2.0 - 1e-9
    if g(lo) >= 0.0:
        lo = sys.float_info.min
        if g(lo) >= 0.0:
            raise DomainError(f"p/q = {p}/{q} puts theta below the smallest "
                              "normal float")
    if g(hi) <= 0.0:
        raise NumericError(f"bisection bracket failed for p/q = {p}/{q}")
    # until lo and hi are adjacent floats: mid then rounds to one of them
    mid = 0.5 * (lo + hi)
    while lo != mid != hi:
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return shape_from_theta(mid, c, rationality=Fraction(p, q))


class Similarity(NamedTuple):
    """Orientation-preserving-or-reversing similarity of the plane.

    Applies as ``p -> translation + scale * R(phi) * H(handedness) * p``
    where H(-1) mirrors across the x axis.
    """

    handedness: int = 1
    phi: float = 0.0
    scale: float = 1.0
    translation: tuple[float, float] = (0.0, 0.0)

    def apply(self, point: tuple[float, float]) -> tuple[float, float]:
        x, y = point
        if self.handedness < 0:
            y = -y
        cphi = math.cos(self.phi)
        sphi = math.sin(self.phi)
        return (
            self.translation[0] + self.scale * (x * cphi - y * sphi),
            self.translation[1] + self.scale * (x * sphi + y * cphi),
        )

    def inverse(self) -> "Similarity":
        inv_scale = 1.0 / self.scale
        inv_phi = wrap_angle(-self.handedness * self.phi)
        tx, ty = self.translation
        probe = Similarity(self.handedness, inv_phi, inv_scale, (0.0, 0.0))
        mx, my = probe.apply((-tx, -ty))
        return Similarity(self.handedness, inv_phi, inv_scale, (mx, my))


def compose(outer: Similarity, inner: Similarity) -> Similarity:
    """The similarity acting as ``outer`` after ``inner``.

    Headings add through the reflection: mirroring first negates the inner
    rotation, so the composed heading is ``outer.phi + s_outer * inner.phi``
    and handedness signs multiply.
    """
    return Similarity(
        handedness=outer.handedness * inner.handedness,
        phi=wrap_angle(outer.phi + outer.handedness * inner.phi),
        scale=outer.scale * inner.scale,
        translation=outer.apply(inner.translation),
    )


class Placement(NamedTuple):
    handedness: int
    phi: float
    origin: tuple[float, float]
    size_exp: tuple[int, int]


class Tile(NamedTuple):
    shape: TriangleShape
    placement: Placement
    id: int
    parent: int | None = None

    def similarity(self) -> Similarity:
        i, j = self.placement.size_exp
        return Similarity(
            handedness=self.placement.handedness,
            phi=self.placement.phi,
            scale=self.shape.scale(i, j),
            translation=self.placement.origin,
        )


def vertices(tile: Tile) -> tuple[tuple[float, float], ...]:
    """Marked boundary points: small-angle vertex, right-angle vertex,
    remaining vertex, and the long-leg midpoint (in that order)."""
    sim = tile.similarity()
    b, a = tile.shape.b, tile.shape.a
    return (
        sim.apply((0.0, 0.0)),
        sim.apply((b, 0.0)),
        sim.apply((b, a)),
        sim.apply((b / 2.0, 0.0)),
    )


def tile_area(tile: Tile) -> float:
    i, j = tile.placement.size_exp
    s = tile.shape.scale(i, j)
    return 0.5 * tile.shape.a * tile.shape.b * s * s
