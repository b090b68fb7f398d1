"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible through pytest's capture)
and enforces both the checked property and its runtime budget.
"""

import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from tilelab.boundary import (f_of_n, forbidden_subwords_check, iterate,
                              sigma_til12, slippage_til12, til2_offsets,
                              til2_slippage_bound, til13_offsets, til13_rule)
from tilelab.classify import verify_orientation_count, verify_size_count
from tilelab.cli import main
from tilelab.geometry import shape_from_pq, shape_from_theta, tile_area
from tilelab.spectral import (char_poly, eigen, eigenfunction,
                              irrational_bounds, irrational_char,
                              irrational_density)
from tilelab.stats import (census_orientation_histogram, census_size_histogram,
                           count_oracle)
from tilelab.substitution import build_Tn, census_steps, root_tiling, subdivide


def _criterion(capsys, num: int, label: str, budget: float, body) -> None:
    t0 = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"CRITERION {num:02d} {label}: "
                  f"{'PASS' if ok else 'FAIL'} ({dt:.2f}s, budget {budget:g}s)")
    assert dt <= budget, f"criterion {num} took {dt:.2f}s, budget {budget:g}s"


def test_criterion_01_subdivision(capsys, five_shapes):
    def body():
        for shape in five_shapes.values():
            parent = root_tiling(shape).tiles[0]
            daughters = subdivide(parent)
            total = sum(tile_area(d) for d in daughters)
            assert abs(total - tile_area(parent)) <= 1e-12 * tile_area(parent)
            build_Tn(shape, 1).validate_cover(samples_per_tile=1000)
            th = shape.theta
            got = Counter((d.placement.handedness,
                           round(d.placement.phi % (2.0 * math.pi), 9))
                          for d in daughters)
            want = Counter({(-1, round(th, 9)): 2,
                            (1, round(th, 9)): 1,
                            (1, round((th + math.pi) % (2.0 * math.pi), 9)): 1,
                            (-1, round(th + math.pi / 2.0, 9)): 1})
            assert got == want
    _criterion(capsys, 1, "subdivision correctness", 1.0, body)


def test_criterion_02_census(capsys, til12, til2, pinwheel, irr1):
    def hyp_multiset(t):
        return Counter(round(t.shape.c * t.shape.scale(*x.placement.size_exp),
                             12) for x in t.tiles)

    def body():
        # a > b/2: the lone short-hypotenuse daughter subdivides at step 2
        for shape in (til12, irr1):
            assert shape.a > shape.b / 2.0
            t2 = build_Tn(shape, 2)
            assert len(t2) == 9
            a, b, c = shape.a, shape.b, shape.c
            want = Counter(round(v, 12) for v in
                           [a * a / c] + [a * b / (2 * c)] * 4 + [b / 2.0] * 4)
            assert hyp_multiset(t2) == want

        # a < b/2: the four half-rectangle daughters subdivide instead
        assert til2.a < til2.b / 2.0
        u2 = build_Tn(til2, 2)
        assert len(u2) == 21
        assert u2.exponent_counts() == {(1, 0): 1, (1, 1): 4, (0, 2): 16}
        a, b, c = til2.a, til2.b, til2.c
        want = Counter(round(v, 12) for v in
                       [a] + [a * b / (2 * c)] * 4 + [b * b / (4 * c)] * 16)
        assert hyp_multiset(u2) == want

        assert len(build_Tn(pinwheel, 2)) == 25
        assert len(build_Tn(pinwheel, 3)) == 125
    _criterion(capsys, 2, "census reproduction", 1.0, body)


def test_criterion_03_dichotomy(capsys, til12, til13, pinwheel):
    def body():
        assert verify_size_count(build_Tn(til12, 6)) == 2
        assert verify_size_count(build_Tn(til13, 6)) == 3
        assert verify_size_count(build_Tn(pinwheel, 6)) == 1
        growing = [verify_orientation_count(build_Tn(til12, n))
                   for n in range(1, 9)]
        assert all(b > a for a, b in zip(growing, growing[1:]))
        stable = [verify_orientation_count(build_Tn(til13, n))
                  for n in range(4, 9)]
        assert len(set(stable[-3:])) == 1
    _criterion(capsys, 3, "size/orientation dichotomy", 10.0, body)


def test_criterion_04_spectral_sweep(capsys, til12, til2):
    def body():
        for p in range(1, 11):
            for q in range(1, 11):
                if math.gcd(p, q) != 1:
                    continue
                shape = shape_from_pq(p, q)
                rep = eigen(shape)       # leading vs r^-2 enforced inside
                assert abs(rep.leading - shape.r ** -2) <= 1e-9 * shape.r ** -2
                assert rep.count_outside_unit == q
                assert abs(sum(rep.nu) - 1.0) <= 1e-10
                assert abs(sum(rep.rho) - 1.0) <= 1e-10
                coeffs = char_poly(p, q)
                m = max(p, q)
                for lam in rep.eigenvalues:
                    val = sum(c * lam ** (m - k) for k, c in enumerate(coeffs))
                    assert abs(val) / max(1.0, abs(lam) ** m) < 1e-8

        s17 = math.sqrt(17.0)
        got = sorted(z.real for z in eigen(til12).eigenvalues)
        assert abs(got[0] - (1.0 - s17) / 2.0) <= 1e-9
        assert abs(got[1] - (1.0 + s17) / 2.0) <= 1e-9
        s5 = math.sqrt(5.0)
        got = sorted(z.real for z in eigen(til2).eigenvalues)
        assert abs(got[0] - (2.0 - s5)) <= 1e-9
        assert abs(got[1] - (2.0 + s5)) <= 1e-9

        eigs = np.linalg.eigvals(np.array(til13_rule().abelianization(),
                                          dtype=float))
        eigs = sorted(eigs, key=lambda z: (abs(z), z.imag))
        assert abs(eigs[2] - 2.0) <= 1e-9
        assert abs(eigs[0] - complex(-0.5, -math.sqrt(7.0) / 2.0)) <= 1e-9
        assert abs(eigs[1] - complex(-0.5, math.sqrt(7.0) / 2.0)) <= 1e-9
        assert abs(abs(eigs[0]) - math.sqrt(2.0)) <= 1e-9
        assert abs(abs(eigs[1]) - math.sqrt(2.0)) <= 1e-9
    _criterion(capsys, 4, "spectral sweep", 5.0, body)


def test_criterion_05_boundary_sequence(capsys):
    def body():
        assert [f_of_n(n) for n in range(1, 8)] == [1, -1, 1, -3, 3, -5, 9]
        for n in range(1, 21):
            word = iterate(sigma_til12(), "H", n, cap=3 * 10 ** 8)
            assert forbidden_subwords_check(word)
        fs = [f_of_n(n) for n in range(1, 32)]
        for fn, fn1 in zip(fs, fs[1:]):
            if abs(fn) > 6:
                assert abs(fn1) >= abs(fn) + 2
        for n, fn in enumerate(fs, start=1):
            if 7 <= n <= 30:
                assert abs(fn) >= n + 2
        ns = np.arange(10, 31)
        ys = np.log([abs(float(f_of_n(int(n)))) for n in ns])
        slope = float(np.polyfit(ns, ys, 1)[0])
        target = abs((1.0 - math.sqrt(17.0)) / 2.0)
        assert abs(math.exp(slope) - target) <= 0.05 * target
    _criterion(capsys, 5, "boundary sequence ground truth", 30.0, body)


def test_criterion_06_slippage(capsys, til12):
    def body():
        counts = []
        for n in range(1, 19):
            prof = slippage_til12(n)
            counts.append(len(prof.distinct_offsets))
            bound = (til12.c / til12.b) * abs(f_of_n(n)) - 1.0
            assert abs(prof.g_at_Q) >= bound - 1e-9
        assert all(b > a for a, b in zip(counts, counts[1:]))

        offset_sets = []
        for n in range(1, 13):
            assert til2_slippage_bound(n) <= 4
            offset_sets.append(tuple(sorted(til2_offsets(n).values())))
        assert len(set(offset_sets[-6:])) == 1    # stabilized

        for n in range(1, 19):
            assert set(til13_offsets(n).values()) <= {0.0, 1.0}
    _criterion(capsys, 6, "slippage dichotomy", 120.0, body)


def test_criterion_07_oracle(capsys, five_shapes):
    def body():
        for shape in five_shapes.values():
            for gen, counts, min_pair in census_steps(shape, 10 ** 4):
                if sum(counts.values()) >= 10 ** 6:
                    break
                cut = shape.size_key(*min_pair)
                for ij, want in counts.items():
                    got = count_oracle(shape, cut, ij)
                    assert got == want, (shape.rationality, gen, ij, got, want)
    _criterion(capsys, 7, "counting oracle equivalence", 120.0, body)


def test_criterion_08_distributions(capsys, til12):
    def body():
        hist = census_size_histogram(til12, 30, "area")
        rho = eigen(til12).rho
        l1 = sum(abs(m - rho[k - 1]) for k, m in zip(hist.labels, hist.masses))
        assert l1 < 0.02

        devs = [census_orientation_histogram(til12, n).max_deviation()
                for n in (8, 12, 16)]
        assert devs[0] > devs[1] > devs[2]
    _criterion(capsys, 8, "distribution convergence", 120.0, body)


def test_criterion_09_irrational_spectrum(capsys):
    def body():
        from scipy.integrate import quad
        rng = random.Random(20260815)
        shapes = [shape_from_theta(rng.uniform(0.15, math.pi / 2.0 - 0.15))
                  for _ in range(20)]
        for shape in shapes:
            assert abs(irrational_char(shape, 2.0)) <= 1e-10
            bounds = irrational_bounds(shape)   # residual-checked inside
            assert bounds["lower"] < bounds["upper"] == 2.0
            for s in np.linspace(shape.mu * (1.0 + 1e-9), shape.mu + 2.0, 25):
                assert abs(eigenfunction(shape, 2.0, float(s))) <= 1e-9
            brk = min(shape.alpha, shape.beta)
            for which in (0, 1):
                total = sum(quad(lambda s: irrational_density(shape, s)[which],
                                 lo, hi, epsabs=1e-12)[0]
                            for lo, hi in [(0.0, brk), (brk, shape.mu)])
                assert abs(total - 1.0) <= 1e-8
    _criterion(capsys, 9, "irrational spectrum", 5.0, body)


def test_criterion_10_determinism(capsys, tmp_path):
    def body():
        argvs = [
            ["generate", "--pq", "1/2", "--n", "6"],
            ["generate", "--theta", "1.0", "--n", "12"],
            ["classify", "--pq", "1/3"],
            ["spectral", "--pq", "2/1"],
            ["spectral", "--theta", "1.0"],
            ["boundary", "--system", "til12", "--n", "8"],
            ["boundary", "--system", "til2", "--n", "6"],
            ["boundary", "--system", "til13", "--n", "8"],
        ]
        for argv in argvs:
            outs = []
            for _ in range(2):
                assert main(argv) == 0
                captured = capsys.readouterr()
                outs.append(captured.out)
            assert outs[0] == outs[1], argv

        src = tmp_path / "t.json"
        assert main(["generate", "--pq", "1/2", "--n", "8",
                     "--out", str(src)]) == 0
        for cmd in (["stats", "--in", str(src)],
                    ["stats", "--in", str(src), "--csv"],
                    ["render", "--in", str(src), "--faults"]):
            first, second = [], []
            for sink in (first, second):
                assert main(cmd) == 0
                sink.append(capsys.readouterr().out)
            assert first == second, cmd
    _criterion(capsys, 10, "CLI determinism", 60.0, body)
