import cmath
import math
import random

import numpy as np
import pytest

from tilelab import spectral
from tilelab.errors import ArgumentError, DomainError, NumericError
from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.spectral import (char_poly, descendant_limit, eigen,
                              eigenfunction, irrational_bounds,
                              irrational_char, irrational_density,
                              irrational_spectrum, orientation_matrices,
                              orientation_spectrum_check, population_matrix)


def _coprime_pairs(limit):
    return [(p, q) for p in range(1, limit + 1) for q in range(1, limit + 1)
            if math.gcd(p, q) == 1]


def test_population_matrix_small_cases():
    # column 0 is the image of the largest class: one tile p ranks down,
    # four tiles q ranks down; the superdiagonal promotes everything else
    m12 = population_matrix(1, 2)
    assert m12.tolist() == [[1, 1], [4, 0]]
    m21 = population_matrix(2, 1)
    assert m21.tolist() == [[4, 1], [1, 0]]


def test_char_poly_matches_matrix():
    for p, q in [(1, 2), (2, 1), (2, 3), (3, 4)]:
        coeffs = char_poly(p, q)
        m = max(p, q)
        assert len(coeffs) == m + 1
        for lam in np.linalg.eigvals(population_matrix(p, q).astype(float)):
            val = sum(c * lam ** (m - k) for k, c in enumerate(coeffs))
            assert abs(val) < 1e-6 * max(1.0, abs(lam) ** m)


def test_til12_eigenvalues_are_one_plus_minus_sqrt17_over_two(til12):
    rep = eigen(til12)
    got = sorted(z.real for z in rep.eigenvalues)
    s17 = math.sqrt(17.0)
    assert got[0] == pytest.approx((1.0 - s17) / 2.0, abs=1e-9)
    assert got[1] == pytest.approx((1.0 + s17) / 2.0, abs=1e-9)
    assert rep.count_outside_unit == 2


def test_til2_eigenvalues_are_two_plus_minus_sqrt5(til2):
    rep = eigen(til2)
    got = sorted(z.real for z in rep.eigenvalues)
    s5 = math.sqrt(5.0)
    assert got[0] == pytest.approx(2.0 - s5, abs=1e-9)
    assert got[1] == pytest.approx(2.0 + s5, abs=1e-9)
    assert rep.count_outside_unit == 1


def test_leading_eigenvalue_is_inverse_square_scale():
    for p, q in [(1, 2), (3, 4), (5, 7), (7, 10)]:
        shape = shape_from_pq(p, q)
        rep = eigen(shape)
        assert rep.leading == pytest.approx(shape.r ** -2, rel=1e-9)


# q = 2 shapes whose root near -2 ties in float modulus with the leading 2
_TIED = [(53, 2), (55, 2), (57, 2), (59, 2), (61, 2), (63, 2)]


@pytest.mark.parametrize("p, q", _TIED)
def test_leading_root_is_the_positive_one(p, q):
    rep = eigen(shape_from_pq(p, q))
    assert rep.leading == 2.0
    assert any(abs(z + 2.0) < 1e-9 for z in rep.eigenvalues)


def test_q_roots_lie_outside_the_unit_circle():
    # Rouche: on |lambda| = 1 the constant term 4 dominates, so exactly q
    # roots lie outside for every coprime p/q
    rng = random.Random(11)
    sample = _TIED + rng.sample(_coprime_pairs(64), 40)
    for p, q in sample:
        assert eigen(shape_from_pq(p, q)).count_outside_unit == q, (p, q)


def test_root_count_against_rouche_is_checked(monkeypatch):
    solve = spectral._polished_roots

    def one_root_pulled_inside(coeffs):
        roots = solve(coeffs)
        i = next(i for i, z in enumerate(roots) if abs(z) > 1.0 and z.real < 0)
        roots[i] /= 2 * abs(roots[i])
        return roots

    monkeypatch.setattr(spectral, "_polished_roots", one_root_pulled_inside)
    with pytest.raises(NumericError, match="Rouche"):
        eigen(shape_from_pq(1, 2))


def _lapack_polished_roots(coeffs):
    """The reference: numpy's companion-matrix roots, given the same one
    Newton step as the solver's."""
    deriv = spectral._poly_deriv(coeffs)
    out = []
    for lam in np.roots(np.asarray(coeffs, dtype=float)):
        lam = complex(lam)
        d = spectral._poly_eval(deriv, lam)
        if d != 0:
            lam = lam - spectral._poly_eval(coeffs, lam) / d
        out.append(lam)
    return sorted(out, key=lambda z: (z.real, z.imag))


def test_roots_match_the_lapack_reference_to_12_digits():
    for p, q in _coprime_pairs(20):
        coeffs = char_poly(p, q)
        got = spectral._polished_roots(coeffs)
        want = _lapack_polished_roots(coeffs)
        assert len(got) == len(want) == max(p, q)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * abs(b), (p, q, a, b)


def test_real_roots_are_real_and_the_others_exact_conjugate_pairs():
    for p, q in _coprime_pairs(64):
        eigs = eigen(shape_from_pq(p, q)).eigenvalues     # its checks pass
        real = [z for z in eigs if z.imag == 0.0]
        assert all(math.copysign(1.0, z.imag) == 1.0 for z in real), (p, q)
        upper = {z for z in eigs if z.imag > 0.0}
        lower = {z.conjugate() for z in eigs if z.imag < 0.0}
        assert upper == lower and len(real) + 2 * len(upper) == max(p, q), (p, q)


def test_an_unsettled_aberth_iteration_is_refused(monkeypatch):
    monkeypatch.setattr(spectral, "ABERTH_MAX_SWEEPS", 1)
    with pytest.raises(NumericError, match="Aberth"):
        eigen(shape_from_pq(3, 5))


def test_frequency_vectors_are_distributions():
    for p, q in [(1, 2), (2, 1), (4, 7), (9, 10)]:
        rep = eigen(shape_from_pq(p, q))
        assert sum(rep.nu) == pytest.approx(1.0, abs=1e-10)
        assert sum(rep.rho) == pytest.approx(1.0, abs=1e-10)
        assert all(x > 0.0 for x in rep.nu)
        assert all(x > 0.0 for x in rep.rho)


def test_eigen_rejects_irrational(irr1):
    with pytest.raises(DomainError):
        eigen(irr1)


def test_descendant_limit_matches_matrix_powers(til12):
    """r^{2n} times the descendant count of one size-k tile converges to
    the closed form; exact bigint matrix powers, no float accumulation."""
    p, q = 1, 2
    M = population_matrix(p, q).astype(object)
    for k in (1, 2):
        v = np.zeros(2, dtype=object)
        v[k - 1] = 1
        for _ in range(40):
            v = M @ v
        emp = float(sum(v)) * til12.r ** 80
        assert emp == pytest.approx(descendant_limit(til12, k), rel=1e-6)


def test_descendant_limit_argument_check(til12):
    with pytest.raises(ArgumentError):
        descendant_limit(til12, 3)


def test_orientation_matrix_shape(til12):
    om = orientation_matrices(til12, 1)
    assert om.E.shape == (4, 4)
    # the two transfer blocks land in the first block row
    assert np.allclose(om.E[0:2, 0:2], om.A2)
    assert np.allclose(om.E[0:2, 2:4], om.B2)


def test_orientation_spectrum_modes(til12):
    r_inv = 1.0 / til12.r
    for n in (1, 3, 5):
        out = orientation_spectrum_check(til12, n)
        assert out["pass"], out
        assert out["max_modulus"] == pytest.approx(r_inv, rel=1e-9)
    for n in (2, 4, 6):
        out = orientation_spectrum_check(til12, n)
        assert out["pass"], out
        assert out["max_modulus"] < r_inv * r_inv


def test_orientation_mode_zero_rejected(til12):
    with pytest.raises(ArgumentError):
        orientation_spectrum_check(til12, 0)


def test_irrational_char_vanishes_at_two(irr1):
    assert abs(irrational_char(irr1, 2.0)) < 1e-10


def test_irrational_char_vanishes_at_two_for_random_shapes():
    rng = random.Random(20260815)
    for _ in range(20):
        shape = shape_from_theta(rng.uniform(0.15, math.pi / 2.0 - 0.15))
        assert abs(irrational_char(shape, 2.0)) < 1e-10


def test_irrational_bounds(irr1):
    out = irrational_bounds(irr1)
    assert out["upper"] == 2.0
    assert out["lower"] < out["upper"]
    window = irrational_spectrum(irr1)
    assert window.real_eigenvalue == 2.0
    assert window.lower_bound == out["lower"]
    assert window.mu == irr1.mu


def test_eigenfunction_vanishes_past_mu(irr1):
    """At the spectral point the mode profile dies beyond the size window."""
    for s in np.linspace(irr1.mu * (1.0 + 1e-9), irr1.mu + 3.0, 40):
        assert abs(eigenfunction(irr1, 2.0, float(s))) < 1e-9
    # strictly inside the window it is alive
    assert abs(eigenfunction(irr1, 2.0, irr1.mu / 2.0)) > 1e-6


def test_densities_integrate_to_one(irr1):
    from scipy.integrate import quad
    brk = min(irr1.alpha, irr1.beta)
    nu_total = 0.0
    rho_total = 0.0
    for lo, hi in [(0.0, brk), (brk, irr1.mu)]:
        nu_total += quad(lambda s: irrational_density(irr1, s)[0],
                         lo, hi, epsabs=1e-12)[0]
        rho_total += quad(lambda s: irrational_density(irr1, s)[1],
                          lo, hi, epsabs=1e-12)[0]
    assert nu_total == pytest.approx(1.0, abs=1e-8)
    assert rho_total == pytest.approx(1.0, abs=1e-8)


def test_density_domain(irr1):
    with pytest.raises(DomainError):
        irrational_density(irr1, irr1.mu)


def test_sweep_all_small_rational_shapes():
    for p, q in _coprime_pairs(6):
        shape = shape_from_pq(p, q)
        rep = eigen(shape)
        assert rep.count_outside_unit == q
        assert sum(rep.nu) == pytest.approx(1.0, abs=1e-10)
        assert sum(rep.rho) == pytest.approx(1.0, abs=1e-10)


def test_sweep_root_structure():
    """Roots stay simple across the sweep, and a second eigenvalue escapes
    the unit circle exactly when q > 1."""
    for p, q in _coprime_pairs(10):
        rep = eigen(shape_from_pq(p, q))
        eigs = sorted(rep.eigenvalues, key=lambda l: -abs(l))
        for i in range(len(eigs)):
            for j in range(i + 1, len(eigs)):
                assert abs(eigs[i] - eigs[j]) > 1e-6
        second = abs(eigs[1]) if len(eigs) > 1 else 0.0
        assert (second > 1.0) == (q > 1), (p, q, second)


def test_matrix_power_fractions_converge_to_nu():
    """Normalized M^n e_1 reaches nu once n clears the spectral gap.

    The horizon has to scale with the gap: near-degenerate pairs like
    (9,2) have |lambda_2|/|lambda_1| ~ 0.998 and need n ~ 2000, so a
    fixed n=30 only works for wide-gap pairs.  Monotone decay from n=1
    holds exactly for the q=1 pairs (real spectrum); everything else
    oscillates through its transient.
    """
    for p, q in _coprime_pairs(10):
        shape = shape_from_pq(p, q)
        rep = eigen(shape)
        nu = np.array(rep.nu)
        mods = sorted((abs(l) for l in rep.eigenvalues), reverse=True)
        ratio = mods[1] / mods[0] if len(mods) > 1 else 0.0
        if ratio == 0.0:
            horizon = 30
        else:
            horizon = max(30, math.ceil(math.log(2e-3) / math.log(ratio)) + 5)
        M = population_matrix(p, q).tolist()
        m = len(M)
        v = [1] + [0] * (m - 1)
        dists = []
        for _ in range(horizon):
            v = [sum(M[r][c] * v[c] for c in range(m)) for r in range(m)]
            tot = sum(v)
            frac = np.array([x / tot for x in v])  # bigint / bigint stays exact
            dists.append(float(np.abs(frac - nu).sum()))
        assert dists[-1] < 0.02, (p, q, dists[-1])
        assert max(dists[-3:]) < 0.02, (p, q)
        if q == 1:
            assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))


def test_descendant_limit_closed_form_relations(til12, pinwheel):
    # the k-dependence is a pure r^{2k} factor
    assert (descendant_limit(til12, 2) / descendant_limit(til12, 1)
            == pytest.approx(til12.r ** 2, rel=1e-12))
    # pinwheel: 5^n descendants, scale r^2 = 1/5, so the limit is exactly 1
    assert descendant_limit(pinwheel, 1) == pytest.approx(1.0, rel=1e-12)


def test_til12_frequencies_in_closed_form(til12):
    rep = eigen(til12)
    s17 = math.sqrt(17.0)
    assert rep.rho[0] == pytest.approx((17.0 + s17) / 34.0, rel=1e-12)
    assert rep.rho[1] == pytest.approx((18.0 - 2.0 * s17) / (34.0 - 2.0 * s17),
                                       rel=1e-12)
    assert rep.nu[0] == pytest.approx(til12.r ** 2, rel=1e-12)


def test_orientation_matrices_mode_zero(til12):
    """Mode 0 degenerates to the plain population problem: the blocks lose
    their phases and the leading eigenvector is r^{2k}(1,1) per class."""
    om = orientation_matrices(til12, 0)
    assert np.allclose(om.A2, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(om.B2, [[2.0, 2.0], [2.0, 2.0]], atol=1e-15)
    assert np.allclose(om.B2 @ np.array([1.0, -1.0]), 0.0, atol=1e-15)
    r2 = til12.r ** 2
    psi = np.array([1.0, 1.0, r2, r2], dtype=complex)
    assert np.allclose(om.E @ psi, psi / r2, atol=1e-12)


def test_orientation_matrices_odd_mode_diagonal():
    # e^{in(theta+pi)} = -e^{in theta} for odd n kills both diagonal entries
    for p, q in ((1, 2), (2, 1), (3, 4)):
        shape = shape_from_pq(p, q)
        for n in (1, 3, 5):
            om = orientation_matrices(shape, n)
            assert abs(om.B2[0, 0]) < 1e-12
            assert abs(om.B2[1, 1]) < 1e-12


def test_irrational_char_values(irr1):
    assert irrational_char(irr1, 0.0) == pytest.approx(-4.0, abs=1e-12)
    # p is increasing through its real root at 2
    assert irrational_char(irr1, 2.0 + 0.05).real > 0.0
    assert irrational_char(irr1, 2.0 - 0.05).real < 0.0


def test_irrational_bounds_pi_over_three():
    shape = shape_from_theta(math.pi / 3.0)
    out = irrational_bounds(shape)
    assert out["upper"] == 2.0
    assert 0.0 < out["lower"] < 2.0
    x = out["lower"]
    aux = (math.exp(shape.beta * x)
           + math.exp((shape.beta - shape.alpha) * x) - 4.0)
    assert abs(aux) <= 1e-10


def test_density_jump_at_alpha(irr1):
    """The area density drops by a^2/(a^2 alpha + b^2 beta) where the
    short-leg term switches off."""
    eps = 1e-9
    lo = irrational_density(irr1, irr1.alpha - eps)[1]
    hi = irrational_density(irr1, irr1.alpha + eps)[1]
    expected = irr1.a ** 2 / (irr1.a ** 2 * irr1.alpha
                              + irr1.b ** 2 * irr1.beta)
    assert lo - hi == pytest.approx(expected, rel=1e-6)
