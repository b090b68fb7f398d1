"""Size and orientation statistics of supertiles against their predicted
limit distributions.

Empirical data comes from two interchangeable sources: built tilings
(geometry) and the exact census (integer bookkeeping per size class,
reaches far larger generations).  Predictions come from the eigenvector
distributions (rational shapes), the closed-form window densities
(irrational shapes), and the binomial lattice-path oracle for individual
exponent classes.
"""

from __future__ import annotations

import io
import math
import numbers
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .classify import orientation_census
from .errors import ArgumentError, DomainError, as_count
from .geometry import KEY_CONTEXT, KEY_DIGITS, TriangleShape, _float_size_key
from .spectral import eigen
from .substitution import JSON_CHUNK_TILES, Tiling, _census_at, size_class_ranks

DEFAULT_SIZE_BINS = 64
DEFAULT_ORIENTATION_BINS = 64


class Histogram(NamedTuple):
    """Mass per size bin; bins are class ranks (rational shapes) or
    left-closed intervals over the size window (irrational shapes)."""

    weighting: str  # "count" or "area"
    labels: tuple
    masses: tuple[float, ...]


class OrientationHistogram(NamedTuple):
    """Heading distribution split by size class and handedness.

    ``cells`` maps (size_rank, handedness) to that cell's share of all
    tiles; ``phi_bins`` holds the cell's own heading distribution over
    ``bins`` equal arcs of [0, 2pi).
    """

    bins: int
    cells: dict[tuple[int, int], float]
    phi_bins: dict[tuple[int, int], tuple[float, ...]]

    def pooled(self) -> tuple[float, ...]:
        acc = [0.0] * self.bins
        for cell, weight in self.cells.items():
            acc = [a + weight * x for a, x in zip(acc, self.phi_bins[cell])]
        return tuple(acc)

    def max_deviation(self) -> float:
        """Largest pooled-bin departure from the uniform heading law."""
        uniform = 1.0 / self.bins
        return max(abs(x - uniform) for x in self.pooled())


def _check_bins(bins) -> None:
    if not isinstance(bins, int) or isinstance(bins, bool) or bins < 1:
        raise ArgumentError(f"bins must be an integer >= 1, got {bins!r}")


def _check_tolerance(tolerance) -> None:
    try:
        valid = math.isfinite(tolerance) and tolerance >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ArgumentError("tolerance must be a finite number >= 0, "
                            f"got {tolerance!r}")


def _phi_position(phi, bins: int):
    """Where a heading (a float or a float array) falls in ``bins`` equal
    arcs of [0, 2pi), in arcs; its bin is the truncation, modulo bins."""
    # headings like pi/2 sit exactly on bin edges; the nudge makes the
    # geometric and census paths agree there despite float noise
    return (phi / (2.0 * math.pi) + 1e-9) * bins


# The most bits a total count may have before the weights are scaled down.
# From about generation 750 of the 1/2 shape on, exact counts pass the
# float range (2**1024) and squared tile areas fall below the normal one
# (2**-1022); scaling from 2**1000 on leaves a margin for the spread of
# areas between classes.
WEIGHT_BITS = 1000


def _weights(shape: TriangleShape, counts: dict, weighting: str) -> list[float]:
    """The count or area weight of each class of ``counts``, in its order.

    All weights share one scale factor 2**-(2*h), which is 1 while the
    total count has at most WEIGHT_BITS bits; counts are divided by it
    exactly (correctly rounded), and areas are taken as the square of the
    linear scale times 2**h.  A power-of-two scale is exact in binary
    floating point, so ratios of weights do not depend on it.
    """
    if weighting not in ("count", "area"):
        raise ArgumentError(f"unknown weighting {weighting!r}")
    h = max(sum(counts.values()).bit_length() - WEIGHT_BITS + 1, 0) // 2
    unit = 1 << (2 * h)
    out = []
    for (i, j), cnt in counts.items():
        w = cnt / unit
        if weighting == "area":
            w *= math.ldexp(shape.A ** i * shape.B ** j, h) ** 2
        out.append(w)
    return out


def _size_histogram_from_counts(shape: TriangleShape, counts: dict,
                                weighting: str, bins: int) -> Histogram:
    weights = _weights(shape, counts, weighting)
    if shape.rationality is not None:
        ranks = size_class_ranks(shape, counts)
        slots = [ranks[pair] - 1 for pair in counts]
        labels = range(1, max(slots) + 2)
    else:
        # irrational: left-closed bins of width mu/bins over the size window
        keys = [float(shape.size_key(i, j)) for i, j in counts]
        lo = min(keys)
        width = shape.mu / bins
        slots = [min(int((key - lo) / width), bins - 1) for key in keys]
        labels = range(bins)
    masses = [0.0] * len(labels)
    for b, w in zip(slots, weights):
        masses[b] += w
    total = _pairwise_total(masses)
    if total <= 0:
        raise ArgumentError("empty distribution")
    return Histogram(weighting=weighting, labels=tuple(labels),
                     masses=tuple([m / total for m in masses]))


def _pairwise_total(values: list[float]) -> float:
    """The sum of ``values`` in numpy's pairwise order, so that histogram
    masses keep the bits they had as ``ndarray.sum()``: eight running
    sums combined as a tree for up to 128 values, halves (at a multiple
    of 8) above that, and one running sum below 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_total(values[:half]) + _pairwise_total(values[half:])
    r = values[:8]
    end = n - n % 8
    for lo in range(8, end, 8):
        r = [a + b for a, b in zip(r, values[lo:lo + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[end:]:
        total += v
    return total


def size_histogram(t: Tiling, weighting: str = "count",
                   bins: int = DEFAULT_SIZE_BINS) -> Histogram:
    """Empirical size distribution of a built tiling."""
    _check_bins(bins)
    return _size_histogram_from_counts(t.shape, t.exponent_counts(),
                                       weighting, bins)


def census_size_histogram(shape: TriangleShape, n: int,
                          weighting: str = "count",
                          bins: int = DEFAULT_SIZE_BINS) -> Histogram:
    """Same distribution from exact counts; no tiles are built.

    The census walks size classes, so a rational shape holds at most
    max(p, q) of them at any n, and each class's count is one exact
    integer however far it passes the float range."""
    _check_bins(bins)
    _weights(shape, {}, weighting)      # a bad weighting fails before the walk
    counts, _ = _census_at(shape, n, classes=True)
    return _size_histogram_from_counts(shape, counts, weighting, bins)


def _orientation_histogram(shape: TriangleShape, items, bins: int
                           ) -> OrientationHistogram:
    """The histogram of ``((i, j, hand, heading_bin), count)`` items: each
    count adds exactly into the integer row of its (size rank, hand) cell,
    every share is one correctly rounded division, and cells keep their
    first-appearance order (pooled() sums in it)."""
    items = list(items)
    ranks = size_class_ranks(shape, {(i, j) for (i, j, _, _), _ in items})
    rows: dict = {}
    for (i, j, hand, b), cnt in items:
        rows.setdefault((ranks[(i, j)], hand), [0] * bins)[b] += cnt
    total = sum(cnt for _, cnt in items)
    cells, phi_bins = {}, {}
    for cell, row in rows.items():
        mass = sum(row)
        cells[cell] = mass / total
        phi_bins[cell] = tuple(x / mass for x in row)
    return OrientationHistogram(bins=bins, cells=cells, phi_bins=phi_bins)


def orientation_histogram(t: Tiling, bins: int = DEFAULT_ORIENTATION_BINS
                          ) -> OrientationHistogram:
    """Heading distribution of a built tiling, split by size and hand, binned
    a chunk of JSON_CHUNK_TILES tiles at a time per cell 2 * pair + (hand > 0)."""
    import numpy as np
    _check_bins(bins)
    pairs, index, _ = t.exponent_pairs()
    counts = np.zeros(2 * len(pairs) * bins, dtype=np.int64)
    order = {}      # cells in order of first appearance
    for lo in range(0, len(t), JSON_CHUNK_TILES):
        part = slice(lo, lo + JSON_CHUNK_TILES)
        cell = 2 * index[part] + (t.handedness[part] > 0)
        shown, first = np.unique(cell, return_index=True)
        order.update(dict.fromkeys(shown[np.argsort(first)].tolist()))
        heading = _phi_position(t.phi[part], bins).astype(np.int64) % bins
        counts += np.bincount(cell * bins + heading,
                              minlength=len(counts))
    rows = counts.reshape(-1, bins)
    return _orientation_histogram(
        t.shape, (((*pairs[c >> 1], 1 if c & 1 else -1, b), cnt)
                  for c in order for b, cnt in enumerate(rows[c].tolist()) if cnt),
        bins)


def census_orientation_histogram(shape: TriangleShape, n: int,
                                 bins: int = DEFAULT_ORIENTATION_BINS,
                                 theta_pi: Fraction | None = None
                                 ) -> OrientationHistogram:
    """Heading distribution from the exact orientation census, one item
    per census key."""
    _check_bins(bins)
    census = orientation_census(shape, n, theta_pi)
    return _orientation_histogram(
        shape, (((i, j, sign, int(_phi_position(census.angle(key), bins)) % bins), cnt)
                for (i, j, sign, key), cnt in census.counts.items()),
        bins)


# -- exact lattice-path counts ------------------------------------------------


def count_oracle(shape: TriangleShape, t_cut, ij: tuple[int, int]) -> int:
    """Exact number of tiles with exponents (i, j) in the cut at t_cut.

    A tile instance is one lattice path of A and B steps; it is present
    exactly when its own size key is at or past the cut but its parent's
    is before it.  In the lower part of the window both parent types
    qualify; in the upper part only the larger step does, which pins the
    path's final step.

    On an irrational shape the exact comparison is of s = key - t_cut
    rounded in KEY_CONTEXT (t_cut by :func:`_decimal_cut`), which no
    caller's context or mpmath precision changes.  With an int, float or
    Decimal cut, doubles place s first: s_f = float(key) - float(t_cut)
    settles the part when it lies more than ``margin`` inside it, and
    :func:`_exact_upper` decides otherwise, as it does every other call
    (exact lattice coincidences, s = 0 at the cut's own class and s =
    min(alpha, beta) one step past it, always land there).  Each double
    is within 2**-53 of its number relative, as is the double subtraction,
    and the rounded s within 10**-49.  So s_f less the double of a bound
    is within 5 * 2**-53 * (|key| + |t_cut| + mu) of s less the bound, as
    the exact comparison sees them.  Inside the window |key| <= |t_cut| +
    mu, so that is below 2**-49 * (|t_cut| + mu); the margin, 2**-47 *
    (|t_cut| + mu), is four times that.
    """
    i, j = ij
    if i < 0 or j < 0:
        raise ArgumentError(f"exponents must be non-negative, got {ij}")
    window = getattr(shape, "_oracle", None)
    if window is None:      # built once per shape, kept on it
        window = _OracleWindow(shape)
        shape._oracle = window
    upper = None
    if type(t_cut) in window.float_cuts:
        cut = window.cut    # read once: another thread may replace it
        if cut[0] is not t_cut:
            cut = window.cut = window.float_bounds(t_cut)
        _, t_float, lower0, lower1, upper0, upper1 = cut
        s = _float_size_key(shape.theta, i, j) - t_float
        if lower0 < s < lower1:
            upper = False
        elif upper0 < s < upper1:
            upper = True
    if upper is None:
        key = shape.size_key(i, j)
        upper = _exact_upper(window, key - t_cut if shape.rationality is not None
                             else KEY_CONTEXT.subtract(key, _decimal_cut(t_cut)))
    if not upper:
        return math.comb(i + j, i) * 4 ** j
    if window.a_below_b:
        # upper window: the path must have arrived by a B step
        return (math.comb(i + j - 1, i) * 4 ** j) if j >= 1 else 0
    return (math.comb(i + j - 1, j) * 4 ** j) if i >= 1 else 0


def _decimal_cut(t_cut) -> Decimal:
    """An oracle cut as a finite Decimal: floats (numpy's too) exactly,
    ints and Fractions divided in KEY_CONTEXT (so ints below 10**50, far
    past any key, exactly), an mpf through mpmath, which its caller has
    loaded."""
    mpmath = sys.modules.get("mpmath")
    if isinstance(t_cut, Decimal):
        cut = t_cut
    elif isinstance(t_cut, numbers.Rational):
        cut = KEY_CONTEXT.divide(int(t_cut.numerator), int(t_cut.denominator))
    elif mpmath is not None and isinstance(t_cut, mpmath.mpf):
        cut = Decimal(mpmath.nstr(t_cut, 2 * KEY_DIGITS))
    elif isinstance(t_cut, numbers.Real):
        cut = Decimal(float(t_cut))
    else:
        raise TypeError(f"cut must be a real number, got {type(t_cut).__name__}")
    if not cut.is_finite():
        raise DomainError(f"cut must be finite, got {t_cut}")
    return cut


def _exact_upper(window: _OracleWindow, s) -> bool:
    """Whether the size offset s lies in the upper part of the window,
    compared in the size key's own arithmetic."""
    low, lower, high = window.bounds
    if not low <= s < high:
        raise DomainError(f"size offset {float(s)} outside the window "
                          f"[0, {float(window.mu)})")
    return not s < lower


class _OracleWindow:
    """mu, whether alpha < beta, and the window [-eps, mu - eps), whose
    lower part ends at min(alpha, beta) - eps, in the size key's own
    arithmetic: integers on the rational lattice (eps = 0), KEY_CONTEXT
    Decimals otherwise (boundary hits are exact lattice coincidences,
    snapped by eps rather than left to rounding).

    Irrational shapes also keep the cut types :func:`count_oracle` may
    read as doubles, and the double bounds of the last such cut.
    """

    __slots__ = ("mu", "a_below_b", "bounds", "float_cuts", "cut")

    def __init__(self, shape: TriangleShape):
        alpha = shape.size_key(1, 0)
        beta = shape.size_key(0, 1)
        self.mu = max(alpha, beta)
        self.a_below_b = alpha < beta
        self.bounds = (0, min(alpha, beta), self.mu)
        self.float_cuts = ()
        if shape.rationality is None:
            eps = Decimal("1e-30")
            self.bounds = tuple(KEY_CONTEXT.subtract(b, eps) for b in self.bounds)
            self.float_cuts = (int, float, Decimal)
            self.cut = (None,)

    def float_bounds(self, t_cut) -> tuple:
        """``t_cut``, its double, and the open intervals of s_f that lie
        more than the margin inside the lower and the upper part."""
        try:
            tf = float(t_cut)
        except (OverflowError, ValueError):   # past the float range, or a Decimal sNaN
            tf = math.nan   # no interval holds a nan: the exact path decides
        margin = 2.0 ** -47 * (abs(tf) + float(self.mu))
        low, lower, high = map(float, self.bounds)
        return (t_cut, tf, low + margin, lower - margin,
                lower + margin, high - margin)


def area_fraction_limit(shape: TriangleShape, interval) -> float:
    """Limiting area fraction of tiles whose size offset lies in the
    interval: the two-term window density integrated in closed form."""
    s0, s1 = interval
    if not (0.0 <= s0 <= s1 <= shape.mu + 1e-12):
        raise ArgumentError(f"interval {interval} not inside [0, {shape.mu}]")
    a2, b2 = shape.a ** 2, shape.b ** 2

    def overlap(hi):
        return max(0.0, min(s1, hi) - min(s0, hi))

    num = a2 * overlap(shape.alpha) + b2 * overlap(shape.beta)
    return num / (a2 * shape.alpha + b2 * shape.beta)


def count_fraction_limit(shape: TriangleShape, interval) -> float:
    """Limiting count fraction over a size-offset interval (the density
    carries e^{2s}: smaller tiles dominate by number)."""
    s0, s1 = interval
    if not (0.0 <= s0 <= s1 <= shape.mu + 1e-12):
        raise ArgumentError(f"interval {interval} not inside [0, {shape.mu}]")
    a2, b2 = shape.a ** 2, shape.b ** 2

    def piece(hi):
        lo_c, hi_c = min(s0, hi), min(s1, hi)
        return math.exp(2.0 * hi_c) - math.exp(2.0 * lo_c)

    return (a2 * piece(shape.alpha) + b2 * piece(shape.beta)) / (4.0 * shape.c ** 2)


def empirical_size_fraction(shape: TriangleShape, n: int, interval,
                            weighting: str = "area") -> float:
    """Weight fraction of T_n tiles whose size offset lies in the
    interval (census counts; offsets in size units from the generation's
    cut, which on a rational shape is ``lattice_unit`` per key step)."""
    # bad arguments fail before the walk
    try:
        s0, s1 = interval
        valid = not any(isinstance(v, bool) or not isinstance(v, numbers.Real)
                        or math.isnan(v) for v in (s0, s1))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ArgumentError(f"interval must be a pair of numbers, got {interval!r}")
    _weights(shape, {}, weighting)
    counts, _ = _census_at(shape, n, classes=True)
    weights = _weights(shape, counts, weighting)
    keys = [shape.size_key(*ij) for ij in counts]
    cut = min(keys)
    unit = 1.0 if shape.rationality is None else shape.lattice_unit
    inside = sum(w for key, w in zip(keys, weights)
                 if s0 <= float(KEY_CONTEXT.subtract(key, cut)) * unit < s1)
    return inside / sum(weights)


def equidistribution_frequency(ratio: float, lo: float, hi: float,
                               n_samples: int = 10 ** 5) -> float:
    """Visit frequency of (k*ratio mod 1) in [lo, hi) for k = 1..N."""
    import numpy as np
    if not (0.0 <= lo < hi <= 1.0):
        raise ArgumentError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")
    if not math.isfinite(ratio):
        raise ArgumentError(f"ratio must be finite, got {ratio}")
    n_samples = as_count(n_samples, "n_samples")
    if n_samples < 1:
        raise ArgumentError(f"n_samples must be at least 1, got {n_samples}")
    k = np.arange(1, n_samples + 1, dtype=np.float64)
    # reduced first (fmod is exact), so k * ratio keeps its fractional bits
    frac = np.mod(k * math.fmod(ratio, 1.0), 1.0)
    return float(((frac >= lo) & (frac < hi)).mean())


# -- analytic-vs-empirical reports --------------------------------------------


class _ReportFields(NamedTuple):
    name: str
    weighting: str
    labels: tuple
    analytic: tuple[float, ...]
    empirical: tuple[float, ...]
    tolerance: float
    metric: str = "l1"


class ComparisonReport(_ReportFields):
    """Per-bin table plus a single verdict.

    Rational shapes are judged by per-bin L1 distance.  Irrational
    shapes carry atomic empirical distributions (finitely many exact
    sizes per generation), which no per-bin metric can reconcile with a
    continuous density; there the cumulative distributions are compared
    instead (sup norm).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_tolerance(self.tolerance)
        return self

    @property
    def l1(self) -> float:
        return float(sum(abs(a - e) for a, e in
                         zip(self.analytic, self.empirical)))

    @property
    def value(self) -> float:
        if self.metric == "l1":
            return self.l1
        if self.metric == "cdf_sup":
            return max(abs(a - e) for a, e in zip(accumulate(self.analytic),
                                                  accumulate(self.empirical)))
        raise ArgumentError(f"unknown metric {self.metric!r}")

    @property
    def passed(self) -> bool:
        return self.value < self.tolerance

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bin,analytic,empirical,abs_error\n")
        for lab, a, e in zip(self.labels, self.analytic, self.empirical):
            buf.write(f"{lab},{a:.12g},{e:.12g},{abs(a - e):.12g}\n")
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "weighting": self.weighting,
            "labels": list(self.labels),
            "analytic": list(self.analytic),
            "empirical": list(self.empirical),
            "metric": self.metric,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def size_comparison(shape: TriangleShape, n: int, weighting: str = "area",
                    tolerance: float = 0.02,
                    bins: int = DEFAULT_SIZE_BINS) -> ComparisonReport:
    """Census size distribution of T_n against the predicted limit (see
    :func:`census_size_histogram`: O(n*m) for a rational shape with m =
    max(p, q) size classes)."""
    _check_tolerance(tolerance)     # before the walk, as the other arguments
    hist = census_size_histogram(shape, n, weighting, bins)
    return histogram_comparison(shape, hist, tolerance)


def histogram_comparison(shape: TriangleShape, hist: Histogram,
                         tolerance: float) -> ComparisonReport:
    """A size histogram of ``shape`` against its predicted limit: the
    eigenvector distribution per class rank (rational shapes, L1), or the
    window density integrated over each bin (irrational shapes, CDF sup
    norm)."""
    if shape.rationality is not None:
        report = eigen(shape)
        full = report.rho if hist.weighting == "area" else report.nu
        if max(hist.labels, default=0) > len(full):
            raise ArgumentError(f"{max(hist.labels)} size classes present, but "
                                f"this shape has at most {len(full)}")
        # early generations may not exhibit every class yet
        analytic = tuple(full[k - 1] for k in hist.labels)
        metric = "l1"
    else:
        width = shape.mu / len(hist.labels)
        limit = area_fraction_limit if hist.weighting == "area" else count_fraction_limit
        analytic = tuple(limit(shape, (k * width, min((k + 1) * width, shape.mu)))
                         for k in hist.labels)
        metric = "cdf_sup"
    return ComparisonReport(name="size", weighting=hist.weighting,
                            labels=hist.labels, analytic=analytic,
                            empirical=hist.masses, tolerance=tolerance,
                            metric=metric)


def orientation_comparison(shape: TriangleShape, n: int,
                           bins: int = DEFAULT_ORIENTATION_BINS,
                           tolerance: float = 0.05,
                           theta_pi: Fraction | None = None) -> ComparisonReport:
    """Pooled heading distribution of T_n against the uniform law."""
    _check_tolerance(tolerance)     # before the walk, as the other arguments
    hist = census_orientation_histogram(shape, n, bins, theta_pi)
    uniform = tuple([1.0 / bins] * bins)
    return ComparisonReport(name="orientation", weighting="count",
                            labels=tuple(range(bins)), analytic=uniform,
                            empirical=hist.pooled(), tolerance=tolerance)
