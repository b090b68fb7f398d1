"""Population matrices and their spectra, orientation transfer matrices,
and the transcendental eigenvalue problem for irrational shapes.

Rational shapes get an m x m integer matrix (m = max(p, q)) whose powers
count tiles per size class; its leading eigenvalue is r^{-2}.  Orientation
statistics live in Fourier modes: mode n evolves by a 2m x 2m complex
matrix built from two 2 x 2 blocks.  Irrational shapes replace the matrix
by an entire function whose only real zero is 2, with explicit size and
area densities on the window [0, mu).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import ArgumentError, DomainError, NumericError
from .geometry import TriangleShape

DEDUPE_TOL = 1e-9
LEADING_REL_TOL = 1e-9
RESIDUAL_TOL = 1e-6     # orientation_spectrum_check's eigenvalue residual
ABERTH_TOL = 2.0 ** -50     # a settled root's last step, relative
ABERTH_MAX_SWEEPS = 100


def _check_pq(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ArgumentError(f"p, q must be positive, got {p}, {q}")
    if math.gcd(p, q) != 1:
        raise ArgumentError(f"p, q must be coprime, got {p}, {q}")


def step(x: float) -> int:
    """Closed-left unit step on the reals: 1 for x >= 0."""
    return 1 if x >= 0.0 else 0


def population_matrix(p: int, q: int) -> np.ndarray:
    """Size-class transfer matrix: counts of T_{n+1} = M @ counts of T_n.

    Classes are ranked largest first.  Deflating a class-1 tile feeds one
    tile p classes down and four tiles q classes down while every other
    class is promoted one rank, giving ones on the superdiagonal, a 1 at
    row p and a 4 at row q of the first column (summed if p = q = 1).
    """
    import numpy as np
    _check_pq(p, q)
    m = max(p, q)
    M = np.zeros((m, m), dtype=np.int64)
    for i in range(m - 1):
        M[i, i + 1] = 1
    M[p - 1, 0] += 1
    M[q - 1, 0] += 4
    return M


def count_vectors(M, v):
    """Yield v, M v, M^2 v, ... as tuples of Python ints (exact at any power).

    ``M`` is a square integer matrix (nested lists or an array) acting on
    count vectors: a population matrix on tiles per size class, or a 1D
    substitution's abelianization on letters per kind.
    """
    rows = [[(c, int(x)) for c, x in enumerate(row) if x] for row in M]
    v = tuple([int(x) for x in v])
    while True:
        yield v
        v = tuple([sum([x * v[c] for c, x in row]) for row in rows])


def char_poly(p: int, q: int) -> list[int]:
    """Characteristic polynomial coefficients, leading term first."""
    _check_pq(p, q)
    m = max(p, q)
    coeffs = [0] * (m + 1)
    coeffs[0] = 1
    if p < q:
        # lambda^q - lambda^{q-p} - 4
        coeffs[p] -= 1
        coeffs[m] -= 4
    elif q < p:
        # lambda^p - 4 lambda^{p-q} - 1
        coeffs[q] -= 4
        coeffs[m] -= 1
    else:
        # p = q = 1: one size class, five daughters
        coeffs[1] = -5
    return coeffs


def _poly_eval(coeffs, x):
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - k) for k, c in enumerate(coeffs[:-1])]


def _polygon_seeds(coeffs) -> tuple[list[float], list[complex]]:
    """Starting points from the Newton polygon (Bini, *Numer. Algorithms*
    13, 1996): an upper hull edge from exponent e1 to e2 stands for the
    e2 - e1 roots of c1 x^e1 + c2 x^e2 = 0, on the circle of radius
    |c1 / c2|^(1 / (e2 - e1)) at angles (arg(-c1 / c2) + 2 pi j) / (e2 - e1).
    With real coefficients those angles are symmetric about the real
    axis: the seeds at angle 0 and pi come back as floats, and of each
    conjugate pair only the one above the axis."""
    m = len(coeffs) - 1
    hull = []      # (exponent, log |c|, c), exponents ascending
    for i in range(m, -1, -1):
        if not coeffs[i]:
            continue
        pt = (m - i, math.log(abs(coeffs[i])), coeffs[i])
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
                                  <= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    real, upper = [], []
    for (e1, l1, c1), (e2, l2, c2) in zip(hull, hull[1:]):
        n = e2 - e1
        radius = math.exp((l1 - l2) / n)
        # angle t pi / n for t of one parity: even if -c1/c2 > 0, else odd
        for t in range(0 if c1 * c2 < 0 else 1, n + 1, 2):
            if t == 0:
                real.append(radius)
            elif t == n:
                real.append(-radius)
            else:
                upper.append(cmath.rect(radius, math.pi * t / n))
    return real, upper


def _aberth_roots(coeffs) -> list[complex]:
    """Every root of a sparse real polynomial by Aberth's simultaneous
    iteration (Aberth, *Math. Comp.* 27, 1973), from the Newton-polygon
    seeds of :func:`_polygon_seeds`.

    Each sweep moves every unsettled root x by N / (1 - N S), where N =
    f(x) / f'(x) comes from the nonzero terms alone (powers, O(1) for the
    trinomials of :func:`char_poly`) and S is the sum of 1 / (x - y) over
    the other roots y, the conjugates of the upper roots included.  A
    real seed moves by a real step, so it stays real; the upper roots
    stand for their conjugate pairs.  A root is settled once its step is
    within ABERTH_TOL of its modulus.
    """
    m = len(coeffs) - 1
    terms = [(c, m - i) for i, c in enumerate(coeffs) if c]
    real, upper = _polygon_seeds(coeffs)
    n_real, n = len(real), len(real) + len(upper)
    roots = real + upper + [z.conjugate() for z in upper]   # roots[n:] mirror
    settled = [False] * n
    for _ in range(ABERTH_MAX_SWEEPS):
        for i in range(n):
            if settled[i]:
                continue
            x = roots[i]
            f = g = 0
            for c, e in terms:
                term = c * x ** e
                f += term
                g += e * term
            newton = x * f / g      # f / f', as x f' = g
            s = 0j      # summed in order: sum() compensates on newer Pythons
            for y in roots[:i] + roots[i + 1:]:
                s += 1 / (x - y)
            if i < n_real:
                s = s.real
            step = newton / (1 - newton * s)
            roots[i] = x - step
            if i >= n_real:
                roots[i + n - n_real] = roots[i].conjugate()
            settled[i] = abs(step) <= ABERTH_TOL * abs(x)
        if all(settled):
            return [complex(x) for x in roots]
    raise NumericError(f"Aberth iteration did not settle in "
                       f"{ABERTH_MAX_SWEEPS} sweeps")


def _polished_roots(coeffs) -> list[complex]:
    roots = _aberth_roots(coeffs)
    deriv = _poly_deriv(coeffs)
    out = []
    for lam in roots:
        d = _poly_eval(deriv, lam)
        if d != 0:
            lam = lam - _poly_eval(coeffs, lam) / d
        out.append(lam)
    # deduplicate (roots here are provably simple; this guards the solver)
    dedup: list[complex] = []
    for lam in sorted(out, key=lambda z: (z.real, z.imag)):
        if not any(abs(lam - seen) <= DEDUPE_TOL for seen in dedup):
            dedup.append(lam)
    return dedup


class SpectralReport(NamedTuple):
    p: int
    q: int
    char_poly: tuple[int, ...]
    eigenvalues: tuple[complex, ...]
    leading: float
    count_outside_unit: int
    nu: tuple[float, ...]
    rho: tuple[float, ...]
    psi_leading: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "char_poly": list(self.char_poly),
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "leading": self.leading,
            "count_outside_unit": self.count_outside_unit,
            "nu": list(self.nu),
            "rho": list(self.rho),
            "psi_leading": list(self.psi_leading),
        }


def eigen(shape: TriangleShape) -> SpectralReport:
    """Full spectral data for a rational shape.

    The population matrix has cycles of the coprime lengths p and q, so it
    is primitive: its leading eigenvalue is the unique positive real root
    (Perron-Frobenius), which for q = 2 ties in float modulus with a root
    near its negative.  That root is checked against r^{-2};
    disagreement beyond 1e-9 relative is a numeric failure, not a soft
    warning.  By Rouche's theorem exactly q roots lie outside the unit
    circle (on |lambda| = 1 the constant 4 outweighs the other two terms),
    and the float count is checked against that.
    """
    if shape.rationality is None:
        raise DomainError("spectral report requires a rational shape")
    p = shape.rationality.numerator
    q = shape.rationality.denominator
    m = max(p, q)
    if m > 64:
        raise ArgumentError(f"max(p, q) = {m} exceeds the supported 64")
    coeffs = char_poly(p, q)
    roots = _polished_roots(coeffs)
    if len(roots) != m:
        raise NumericError(f"expected {m} distinct roots, found {len(roots)}")
    positive = [z.real for z in roots if abs(z.imag) <= DEDUPE_TOL and z.real > 0]
    if len(positive) != 1:
        raise NumericError(
            f"expected one positive real root, found {len(positive)}")
    lam = positive[0]
    r2inv = 1.0 / (shape.r * shape.r)
    if abs(lam - r2inv) > LEADING_REL_TOL * r2inv:
        raise NumericError(f"leading root {lam} does not match r^-2 = {r2inv}")
    outside = sum(1 for z in roots if abs(z) > 1.0)
    if outside != q:
        raise NumericError(
            f"{outside} roots outside the unit circle, Rouche's theorem gives {q}")
    a2, b2, c2 = shape.a ** 2, shape.b ** 2, shape.c ** 2
    r2 = shape.r * shape.r
    nu = [(1.0 - r2) / (4.0 * c2)
          * (a2 * step(p - k) + b2 * step(q - k)) * r2 ** (-k)
          for k in range(1, m + 1)]
    rho = [(a2 * step(p - k) + b2 * step(q - k)) / (p * a2 + q * b2)
           for k in range(1, m + 1)]
    psi = [lam ** k
           - lam ** (k - p) * step(k - p - 1)
           - 4.0 * lam ** (k - q) * step(k - q - 1)
           for k in range(1, m + 1)]
    return SpectralReport(
        p=p, q=q,
        char_poly=tuple(coeffs),
        eigenvalues=tuple(roots),
        leading=lam,
        count_outside_unit=outside,
        nu=tuple(nu),
        rho=tuple(rho),
        psi_leading=tuple(psi),
    )


def descendant_limit(shape: TriangleShape, k: int) -> float:
    """Limit of r^{2n} times the descendant count of one size-k tile."""
    if shape.rationality is None:
        raise DomainError("descendant limit requires a rational shape")
    p = shape.rationality.numerator
    q = shape.rationality.denominator
    if not 1 <= k <= max(p, q):
        raise ArgumentError(f"k must lie in 1..{max(p, q)}, got {k}")
    a2, b2, c2 = shape.a ** 2, shape.b ** 2, shape.c ** 2
    r2 = shape.r * shape.r
    return 4.0 * c2 * r2 ** k / ((1.0 - r2) * (p * a2 + q * b2))


# -- orientation transfer ------------------------------------------------------


class OrientationMatrix(NamedTuple):
    n: int
    A2: np.ndarray
    B2: np.ndarray
    E: np.ndarray


def orientation_matrices(shape: TriangleShape, n: int) -> OrientationMatrix:
    """Fourier-mode-n transfer blocks and the assembled 2m x 2m matrix.

    A2 handles the lone short-hypotenuse daughter (a mirrored tile turned
    by theta + pi/2), B2 the four half-rectangle daughters.  Columns are
    indexed by the parent's handedness (+ then -).
    """
    import numpy as np
    if shape.rationality is None:
        raise DomainError("orientation matrices require a rational shape")
    th = shape.theta
    A2 = np.array([
        [0.0, cmath.exp(-1j * n * (th + math.pi / 2.0))],
        [cmath.exp(1j * n * (th + math.pi / 2.0)), 0.0],
    ])
    B2 = np.array([
        [cmath.exp(1j * n * th) + cmath.exp(1j * n * (th + math.pi)),
         2.0 * cmath.exp(-1j * n * th)],
        [2.0 * cmath.exp(1j * n * th),
         cmath.exp(-1j * n * th) + cmath.exp(1j * n * (-th + math.pi))],
    ])
    p = shape.rationality.numerator
    q = shape.rationality.denominator
    m = max(p, q)
    E = np.zeros((2 * m, 2 * m), dtype=complex)
    for i in range(2, m + 1):
        E[2 * i - 2:2 * i, 2 * i - 4:2 * i - 2] = np.eye(2)
    E[0:2, 2 * p - 2:2 * p] += A2
    E[0:2, 2 * q - 2:2 * q] += B2
    return OrientationMatrix(n=n, A2=A2, B2=B2, E=E)


def orientation_char_value(shape: TriangleShape, n: int, lam: complex) -> complex:
    """The degree-2m orientation characteristic polynomial at ``lam``.

    Trigonometric coefficients are resolved by the parity of n so that the
    exactly-zero ones vanish identically.
    """
    if shape.rationality is None:
        raise DomainError("orientation spectrum requires a rational shape")
    p = shape.rationality.numerator
    q = shape.rationality.denominator
    m = max(p, q)
    th = shape.theta
    if n % 2 == 1:
        t_q = 0.0
        t_2q = -4.0
        t_pq = 0.0
    else:
        t_q = 4.0 * math.cos(n * th)
        t_2q = 0.0
        t_pq = 4.0 if n % 4 == 0 else -4.0
    return (lam ** (2 * m)
            - t_q * lam ** (2 * m - q)
            + t_2q * lam ** (2 * m - 2 * q)
            - lam ** (2 * m - 2 * p)
            - t_pq * lam ** (2 * m - p - q))


def orientation_spectrum_check(shape: TriangleShape, n: int) -> dict:
    """Eigenvalues of the mode-n transfer matrix against the mode bounds.

    Odd modes must peak exactly at r^{-1}; even nonzero modes must stay
    strictly inside radius r^{-2}.  Every eigenvalue is also pushed back
    through the characteristic polynomial, normalized by its largest term.
    """
    import numpy as np
    if n == 0:
        raise ArgumentError("mode 0 is the plain population problem")
    om = orientation_matrices(shape, n)
    eigs = np.linalg.eigvals(om.E)
    moduli = np.abs(eigs)
    max_mod = float(moduli.max())
    r_inv = 1.0 / shape.r
    m = max(shape.rationality.numerator, shape.rationality.denominator)
    residuals = []
    for lam in eigs:
        val = orientation_char_value(shape, n, complex(lam))
        scale = max(1.0, abs(lam) ** (2 * m))
        residuals.append(abs(val) / scale)
    worst = max(residuals)
    if worst > RESIDUAL_TOL:
        raise NumericError(
            f"orientation eigenvalue residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")
    if n % 2 == 1:
        ok = abs(max_mod - r_inv) <= 1e-9 * r_inv
    else:
        ok = bool(max_mod < r_inv * r_inv)
    return {"n": n, "max_modulus": max_mod, "pass": ok,
            "max_residual": worst}


# -- irrational shapes ---------------------------------------------------------


def irrational_char(shape: TriangleShape, lam: complex) -> complex:
    """The entire function replacing the characteristic polynomial.

    Its unique real zero is 2: growth multiplies counts by e^{2t} in the
    continuous deflation parameter regardless of the shape.
    """
    a, b, mu = shape.alpha, shape.beta, shape.mu
    return (cmath.exp(mu * lam)
            - cmath.exp((mu - a) * lam)
            - 4.0 * cmath.exp((mu - b) * lam))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of ``f`` in [xa, xb] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).

    A line-for-line port of scipy's ``brentq.c``: the same steps in the
    same IEEE operation order, so the same root to the bit as
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)``.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError("Brent's method needs a sign change on the bracket")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = min(abs(spre), 3 * abs(sbis) - delta)
            if 2 * abs(stry) < bound:
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericError(f"Brent's method did not converge in {maxiter} steps")


def irrational_bounds(shape: TriangleShape) -> dict:
    """Real spectral window: the eigenvalue 2 and the lower bound root.

    For alpha < beta the bound is the positive root of
    e^{beta*x} + e^{(beta-alpha)*x} - 4; otherwise the negative root of
    e^{alpha*x} + 4 e^{(alpha-beta)*x} - 1.  Both are strictly increasing,
    so the brackets are certain.  For alpha > beta the lower end doubles
    from -1 until aux < 0, which it reaches by x = -ln 8/(alpha - beta):
    there aux <= 1/8 + 1/2 - 1.  At alpha = beta aux > 3 has no root.
    """
    a, b = shape.alpha, shape.beta
    if a < b:
        def aux(x: float) -> float:
            return math.exp(b * x) + math.exp((b - a) * x) - 4.0
        lo, hi = 0.0, 2.0
    else:
        if a == b:
            raise NumericError("no bracket for the lower spectral bound")

        def aux(x: float) -> float:
            return math.exp(a * x) + 4.0 * math.exp((a - b) * x) - 1.0
        hi = 0.0
        lo = -1.0
        while aux(lo) > 0.0:
            lo *= 2.0
    root = _brentq(aux, lo, hi, xtol=1e-13, rtol=1e-14)
    if abs(aux(root)) > 1e-9:
        raise NumericError(f"lower-bound root residual {aux(root):.3e}")
    return {"upper": 2.0, "lower": root}


def eigenfunction(shape: TriangleShape, lam: complex, s: float) -> complex:
    """Mode profile over the size coordinate; vanishes identically past mu
    exactly when lam is a spectral point."""
    a, b = shape.alpha, shape.beta
    return (cmath.exp(lam * s)
            - cmath.exp(lam * (s - a)) * step(s - a)
            - 4.0 * cmath.exp(lam * (s - b)) * step(s - b))


def irrational_density(shape: TriangleShape, s: float) -> tuple[float, float]:
    """Count and area densities at size coordinate s in [0, mu).

    Both are piecewise with a single break at min(alpha, beta); both
    integrate to 1 over the window.
    """
    if not 0.0 <= s < shape.mu:
        raise DomainError(f"s must lie in [0, {shape.mu}), got {s}")
    a2, b2, c2 = shape.a ** 2, shape.b ** 2, shape.c ** 2
    al, be = shape.alpha, shape.beta
    common = a2 * step(al - s) + b2 * step(be - s)
    nu_density = common * math.exp(2.0 * s) / (2.0 * c2)
    rho_density = common / (a2 * al + b2 * be)
    return nu_density, rho_density


class IrrationalSpectrum(NamedTuple):
    alpha: float
    beta: float
    mu: float
    real_eigenvalue: float
    lower_bound: float

    def to_json(self) -> dict:
        return self._asdict()


def irrational_spectrum(shape: TriangleShape) -> IrrationalSpectrum:
    bounds = irrational_bounds(shape)
    return IrrationalSpectrum(
        alpha=shape.alpha, beta=shape.beta, mu=shape.mu,
        real_eigenvalue=bounds["upper"], lower_bound=bounds["lower"])
