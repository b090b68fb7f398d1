import inspect
import itertools
import math
import re
import sys

import numpy as np
import pytest

from tilelab import boundary
from tilelab.boundary import (TIL2, TIL12, TIL13, FaultLine,
                              SubstitutionRule1D, _block_layout, _cut,
                              _nearest_offsets, _surplus, balanced_pairs,
                              check_letter_cap, f_of_n,
                              forbidden_subwords_check, iterate,
                              legal_factors, pair_levels,
                              sigma0_til12, sigma_til12, slippage_til12,
                              til2_identity_check, til2_offsets, til2_pairs,
                              til2_rule, til2_slippage_bound, til13_fluctuation,
                              til13_offsets, til13_pairs, til13_rule)
from tilelab.errors import ArgumentError, ResourceError
from tilelab.geometry import shape_from_pq
from tilelab.spectral import count_vectors
from tilelab.substitution import build_Tn, trace_edge

F_FIRST_TEN = [1, -1, 1, -3, 3, -5, 9, -13, 21, -33]


# -- the one-dimensional rules, read off the subdivided triangles ---------------


def trace_letters(segments):
    """Traced edge segments as signed letters (upper = aligned)."""
    return "".join(s.kind.upper() if s.sign > 0 else s.kind.lower()
                   for s in segments)


def rule_from_geometry(shape, name, chars, letter_of, generations):
    """Read one-dimensional images off the subdivided shape itself.

    ``letter_of(segment)`` maps a traced edge segment to a letter char.
    Images are extracted by span: the word of T_{g+2} restricted to a
    letter's interval in T_g is that letter's image (substitution acts
    locally along the edge).
    """
    images = {}
    words = {g: [(letter_of(s), s.position, s.position + s.length)
                 for s in trace_edge(build_Tn(shape, g), "hypotenuse")]
             for g in generations}
    tol = 1e-9 * shape.c
    for g_from, g_to in zip(generations, generations[1:]):
        for letter, lo, hi in words[g_from]:
            images.setdefault(letter, "".join(
                l for (l, s0, s1) in words[g_to] if s0 >= lo - tol and s1 <= hi + tol))
    assert set(images) == set(chars), (name, sorted(images))
    return SubstitutionRule1D(name=name, chars=chars, images=images)


def til2_letter(seg):
    """Letter of a traced edge segment of the p/q = 2/1 shape."""
    assert seg.size_class == 1, "a small tile touches the til2 fault line"
    return "H" if seg.kind == "H" else "S"


def til13_letter(seg):
    """Letter of a traced edge segment of the p/q = 1/3 shape."""
    letters = {("H", 1): "H", ("L", 2): "L", ("H", 3): "h"}
    letter = letters.get((seg.kind, seg.size_class))
    assert letter, f"unexpected fault-line segment {seg.kind}/{seg.size_class}"
    return letter


def test_iterate_lengths_match_abelianization():
    """The count-vector walk against letter counts of materialized words."""
    for rule in (sigma0_til12(), sigma_til12(), til2_rule(), til13_rule()):
        walk = count_vectors(rule.abelianization(),
                             [int(ch == "H") for ch in rule.chars])
        for n, vec in zip(range(13), walk):
            w = iterate(rule, "H", n)
            assert tuple(w.count(c) for c in rule.chars) == vec, (rule.name, n)
            assert len(w) == sum(vec)
            if rule is til13_rule():
                assert til13_fluctuation(n) == w.count("H") - w.count("L")
            if rule is til2_rule():
                assert til2_identity_check(n)


def test_iterate_letter_cap():
    with pytest.raises(ResourceError):
        iterate(sigma_til12(), "H", 40, cap=10 ** 6)


@pytest.mark.parametrize("seed, n", [("X", 5), ("HX", 0), ("H", -1)])
def test_letter_cap_check_refuses_what_iterate_refuses(seed, n):
    with pytest.raises(ArgumentError) as it:
        iterate(til2_rule(), seed, n)
    with pytest.raises(ArgumentError) as check:
        check_letter_cap(til2_rule(), seed, n)
    assert str(check.value) == str(it.value)


@pytest.mark.parametrize("n", [13, 30, sys.maxsize, 2 ** 70])
def test_any_n_past_the_letter_cap_is_refused(n):
    # the refusal names the first sigma^k(H) past the cap, however large n is
    message = re.escape("til2: sigma^13 would have 165580141 letters, cap is 100000000")
    with pytest.raises(ResourceError, match=message):
        iterate(til2_rule(), "H", n)
    with pytest.raises(ResourceError, match=message):
        check_letter_cap(til2_rule(), "H", n)


def test_sigma0_golden_rule():
    rule = sigma0_til12()
    assert rule.images == {"H": "LlH", "h": "hLl", "L": "HH", "l": "hh"}


def test_sigma_golden_rule():
    rule = sigma_til12()
    assert rule.images == {"H": "LH", "h": "hL", "L": "HHhh"}


def test_sigma0_matches_the_traced_hypotenuse(til12):
    """One sigma0 step is two subdivision rounds of the edge."""
    for k in (1, 2, 3):
        segs = trace_edge(build_Tn(til12, 2 * k), "hypotenuse")
        assert trace_letters(segs) == iterate(sigma0_til12(), "LlH", k - 1)


def test_f_ground_truth():
    assert [f_of_n(n) for n in range(1, 11)] == F_FIRST_TEN
    assert f_of_n(18) == -1111
    assert f_of_n(30) == -235351
    with pytest.raises(ArgumentError):
        f_of_n(0)


def test_f_matches_materialized_words():
    rule = sigma_til12()
    for n in range(1, 15):
        w = iterate(rule, "H", n)
        half = len(w) // 2
        direct = 2 * w[:half].count("L") - w.count("L")
        assert f_of_n(n) == direct


def test_forbidden_subwords():
    for n in range(1, 15):
        assert forbidden_subwords_check(iterate(sigma_til12(), "H", n))
    assert not forbidden_subwords_check("HLLh")
    assert not forbidden_subwords_check("LhHL")
    assert not forbidden_subwords_check("L" + "hH" * 1)
    assert not forbidden_subwords_check("HhHhHhH")   # seven-run of {H, h}
    assert forbidden_subwords_check("HLhLHLh")


def _factor_set(word, k):
    return {word[i:j] for i in range(len(word))
            for j in range(i + 1, min(i + k, len(word)) + 1)}


def test_til12_legal_factors_close_at_five():
    sets = legal_factors(sigma_til12(), 7)
    assert [len(f) for f in sets] == [1, 3, 18, 59, 121, 141, 141]
    assert sets[6] == sets[5]
    # the factor sets of the materialized words, the last one for all n >= 5
    for n in range(13):
        word = iterate(sigma_til12(), "H", n)
        assert sets[min(n, 5)] == _factor_set(word, 7), n
    # so no sigma^n(H) holds LL, hH or seven H/h in a row, for any n
    assert all(forbidden_subwords_check(f) for f in sets[5])
    assert forbidden_subwords_check("".join(sorted(sets[5], key=len)[-1]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_legal_factors_of_every_length_match_the_words(k):
    for rule in (sigma_til12(), sigma0_til12()):
        sets = legal_factors(rule, k)
        assert sets[-1] in sets[:-1]
        first = sets.index(sets[-1])
        period = len(sets) - 1 - first
        for n in range(10):
            at = n if n < len(sets) - 1 else first + (n - first) % period
            assert sets[at] == _factor_set(iterate(rule, "H", n), k), (rule.name, k, n)


def test_legal_factors_refuse_what_they_cannot_bound():
    with pytest.raises(ArgumentError, match="at least two letters"):
        legal_factors(til13_rule(), 7)      # h -> H
    with pytest.raises(ArgumentError, match="at least two letters"):
        legal_factors(til2_rule(), 7)       # S -> H
    with pytest.raises(ArgumentError, match="factor length must be at least 1, got 0"):
        legal_factors(sigma_til12(), 0)


def test_growth_bounds():
    fs = [f_of_n(n) for n in range(1, 32)]
    for fn, fn1 in zip(fs, fs[1:]):
        if abs(fn) > 6:
            assert abs(fn1) >= abs(fn) + 2
    for n, fn in enumerate(fs, start=1):
        if n >= 7:
            assert abs(fn) >= n + 2


def test_growth_rate_matches_the_subleading_eigenvalue():
    target = abs((1.0 - math.sqrt(17.0)) / 2.0)
    ns = np.arange(10, 31)
    ys = np.log([abs(float(f_of_n(int(n)))) for n in ns])
    slope = float(np.polyfit(ns, ys, 1)[0])
    assert math.exp(slope) == pytest.approx(target, rel=0.05)


def test_til12_slippage_profile():
    counts = []
    for n in range(1, 11):
        prof = slippage_til12(n)
        assert prof.f == f_of_n(n)
        counts.append(len(prof.distinct_offsets))
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_til12_slippage_lower_bound(til12):
    for n in (4, 8, 12):
        prof = slippage_til12(n)
        bound = (til12.c / til12.b) * abs(f_of_n(n)) - 1.0
        assert abs(prof.g_at_Q) >= bound - 1e-9


def test_til12_v_counts_the_legs():
    # slippage_til12 reads the leg counts of g_at_Q off v: every leg
    # segment steps v by 1 and no other segment moves v
    for c, (_, dv, _) in TIL12.segments.items():
        assert dv == (1 if c == TIL12.leg else 0), c


def test_til2_rule_comes_out_of_the_geometry():
    rule = rule_from_geometry(shape_from_pq(2, 1), "til2", "HS",
                              til2_letter, (2, 4, 6))
    assert rule.images == {"H": "HHHHS", "S": "H"}
    assert rule == til2_rule()
    eigs = sorted(np.linalg.eigvals(np.array(rule.abelianization(),
                                             dtype=float)).real)
    s5 = math.sqrt(5.0)
    assert eigs[0] == pytest.approx(2.0 - s5, abs=1e-9)
    assert eigs[1] == pytest.approx(2.0 + s5, abs=1e-9)


def test_til2_identity():
    for n in range(1, 11):
        assert til2_identity_check(n)


def test_til2_boundary_stays_tight():
    for n in range(1, 9):
        assert til2_slippage_bound(n) <= 4


def test_til2_offsets_stabilize():
    want = {0: 0.0, 1: math.sqrt(5.0) - 2.0}
    for n in (1, 4, 8):
        got = til2_offsets(n)
        assert set(got) == set(want)
        for key, val in want.items():
            assert got[key] == pytest.approx(val, abs=1e-9)


def test_til13_rule_comes_out_of_the_geometry():
    rule = rule_from_geometry(shape_from_pq(1, 3), "til13", "HLh",
                              til13_letter, (2, 4, 6))
    assert rule.images == {"H": "LLH", "L": "hh", "h": "H"}
    assert rule == til13_rule()
    eigs = np.linalg.eigvals(np.array(rule.abelianization(), dtype=float))
    moduli = sorted(abs(z) for z in eigs)
    assert moduli[2] == pytest.approx(2.0, abs=1e-9)
    assert moduli[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert moduli[1] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_til13_offsets_are_rigid():
    # every contact offset is 0 or one short-leg unit: no slippage
    for n in range(1, 13):
        vals = set(til13_offsets(n).values())
        assert vals <= {0.0, 1.0}


def test_til13_fluctuation_growth():
    ns = np.arange(8, 31)
    ys = np.log([abs(float(til13_fluctuation(int(n)))) for n in ns])
    slope = float(np.polyfit(ns, ys, 1)[0])
    assert slope == pytest.approx(math.log(math.sqrt(2.0)), rel=0.10)


def test_rule_validates_its_images():
    with pytest.raises(ArgumentError):
        SubstitutionRule1D(name="bad", chars="H", images={"H": "HX"})


def test_sigma_second_iterate():
    assert iterate(sigma_til12(), "H", 2) == "HHhhLH"


def test_til12_offset_count_tracks_g():
    # more crossing points than half the net drift, always
    for n in (4, 8, 12):
        prof = slippage_til12(n)
        assert len(prof.distinct_offsets) > abs(prof.g_at_Q) / 2.0


def test_til2_degenerate_cases():
    assert til2_slippage_bound(0) == 0
    assert til2_identity_check(0)


def test_til13_letters_equidistribute():
    """H, L and h each approach frequency 1/3 (the subleading modulus
    sqrt(2) against leading 2 gives ~2^{-n/2} transients)."""
    word = iterate(til13_rule(), "H", 20)
    total = len(word)
    for letter in "HLh":
        assert word.count(letter) / total == pytest.approx(1.0 / 3.0, abs=0.01)


# -- balanced-pair certificates ----------------------------------------------


def _level_pairs(pairs, n):
    """The pair sequence that cuts level n, by expanding the images."""
    seq = [0]
    for _ in range(n):
        seq = [j for i in seq for j in pairs[i].image]
    return [pairs[i] for i in seq]


def test_til2_pairs_close_at_three():
    pairs = til2_pairs()
    assert [(p.top, p.bottom) for p in pairs] == [
        ("H", "H"), ("HHHHS", "SHHHH"), ("HHHS", "SHHH")]
    assert max(p.surplus for p in pairs) == 1


def test_pair_surplus_counts_the_leg_letter():
    # S ends at sqrt5 - 2 and H at 1, so both bottom S legs end before the
    # first top H; the H surplus is only 1
    assert _surplus("HHSS", "SSHH", TIL2) == 2
    assert _surplus("HHSS", "SSHH", FaultLine(**{**TIL2._asdict(), "leg": "H"})) == 1


def test_til13_pairs_close_at_seven():
    pairs = til13_pairs()
    assert len(pairs) == 7
    assert set().union(*(p.offsets.values() for p in pairs)) <= {0.0, 1.0}


@pytest.mark.parametrize("rule,pairs,n_max", [
    (til2_rule, til2_pairs, 9), (til13_rule, til13_pairs, 14)])
def test_pairs_cut_the_materialized_fault_line(rule, pairs, n_max):
    """Level n's pairs, laid end to end, are sigma^n(H) over its mirror."""
    for n in range(n_max + 1):
        word = iterate(rule(), "H", n)
        level = _level_pairs(pairs(), n)
        assert "".join(p.top for p in level) == word
        assert "".join(p.bottom for p in level) == word[::-1]


def _laid_out_offsets(line, n, k):
    return list(_nearest_offsets(_block_layout(line, n, k), line.D).items())


# block depths of the laid-out words, each with the largest n it is run
# to: one-letter blocks, the default depth, and k >= n, where the one
# block is the whole word and the one configuration
_DEFAULT_DEPTH = inspect.signature(_block_layout).parameters["k"].default
_DEPTHS = {"til2": {1: 9, _DEFAULT_DEPTH: 12, 99: 8},
           "til13": {1: 18, _DEFAULT_DEPTH: 18, 99: 14}}


def test_til2_pair_levels_match_the_materialized_rows():
    # offsets here; the surplus against the Python merge over the laid-out
    # word is test_til2_slippage_bound_matches_python_merge
    levels = pair_levels(til2_pairs())
    for n, present in zip(range(13), levels):
        offsets = {k: v for p in present for k, v in p.offsets.items()}
        for k, n_max in _DEPTHS["til2"].items():
            if n <= n_max:
                assert list(offsets.items()) == _laid_out_offsets(TIL2, n, k), (n, k)


def test_til13_pair_levels_match_the_materialized_rows():
    # the offset kernel with D = 1 and all-v lengths
    levels = pair_levels(til13_pairs())
    for n, present in zip(range(19), levels):
        offsets = {k: v for p in present for k, v in p.offsets.items()}
        for k, n_max in _DEPTHS["til13"].items():
            if n <= n_max:
                assert list(offsets.items()) == _laid_out_offsets(TIL13, n, k), (n, k)


def test_til2_and_til13_answers_build_no_word(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a fault-line word was built")

    monkeypatch.setattr(boundary, "_block_layout", build)
    monkeypatch.setattr(boundary, "iterate", build)
    assert til2_slippage_bound(12) == 1
    assert list(til2_offsets(12)) == [0, 1]
    assert til13_offsets(18) == {0: 0.0, 1: 1.0}


_NEGATIVE = "iteration count must be non-negative, got -1"
_CAP = "letters, cap is 100000000"
_TIL2_CAP = (ResourceError, f"til2: sigma^13 would have 165580141 {_CAP}")
_TIL13_CAP = (ResourceError, f"til13: sigma^26 would have 100659247 {_CAP}")
_REFUSALS = {   # n -> the error iterate raises for sigma^n(H)
    "til2": {-1: (ArgumentError, _NEGATIVE), 13: _TIL2_CAP, 30: _TIL2_CAP,
             sys.maxsize: _TIL2_CAP, 2 ** 70: _TIL2_CAP},
    "til13": {-1: (ArgumentError, _NEGATIVE), 26: _TIL13_CAP, 30: _TIL13_CAP,
              sys.maxsize: _TIL13_CAP, 2 ** 70: _TIL13_CAP},
}


@pytest.mark.parametrize("fn, system", [
    (til2_slippage_bound, "til2"), (til2_offsets, "til2"), (til13_offsets, "til13")],
    ids=["til2_slippage_bound", "til2_offsets", "til13_offsets"])
def test_til2_and_til13_answers_refuse_as_iterate(fn, system):
    for n, (error, message) in _REFUSALS[system].items():
        with pytest.raises(error) as exc:
            fn(n)
        assert type(exc.value) is error and str(exc.value) == message, n


def test_til12_pairs_do_not_close():
    assert balanced_pairs(TIL12) is None


def test_balanced_pair_cut_is_exact_past_float_precision():
    # 2**53 + 1 rounds to 2**53 in floats, so the float prefix sums of ABB
    # and BBA end apart; exactly they end together
    rule = SubstitutionRule1D(name="ab", chars="AB",
                              images={"A": "AB", "B": "A"})
    line = FaultLine(rule, {"A": (2 ** 53, 0, 1), "B": (1, 0, 1)}, 2, "B")
    assert _cut("ABB", "BBA", line) == [("ABB", "BBA")]
    assert _cut("ABBA", "BBAA", line) == [("ABB", "BBA"), ("A", "A")]
    assert _cut("AB", "AB", line) == [("A", "A"), ("B", "B")]


def test_balanced_pairs_need_eigen_lengths():
    line = FaultLine(**{**TIL2._asdict(),
                         "segments": {"H": (1, 0, 1), "S": (1, 0, 1)}})
    with pytest.raises(ArgumentError):
        balanced_pairs(line)


@pytest.mark.parametrize("segments, leg", [
    ({"H": (4, 0, 1), "h": (4, 0, 1)}, "L"),
    ({**TIL12.segments, "l": (-1, 1, 2)}, "L"),
    ({**TIL12.segments, "L": (-1, 1, 0)}, "L"),
    (TIL12.segments, "l"),
    ({**TIL12.segments, "L": (-5, 1, 2)}, "L"),   # -5 + sqrt(17) < 0
    ({**TIL12.segments, "h": (0, 0, 1)}, "L"),
], ids=["letter-missing", "letter-extra", "no-segments", "leg-not-a-letter",
        "negative-length", "zero-length"])
def test_fault_line_refuses_tables_that_lay_out_wrong_words(segments, leg):
    with pytest.raises(ArgumentError):
        FaultLine(sigma_til12(), segments, 17, leg)


def test_fault_line_refuses_non_ascii_letters():
    rule = SubstitutionRule1D(name="he", chars="Hé",
                              images={"H": "Hé", "é": "H"})
    with pytest.raises(ArgumentError):
        FaultLine(rule, {"H": (1, 0, 1), "é": (2, 0, 1)}, 2, "é")


def test_layout_takes_steps_outside_int8():
    # blocks are summed in int64, so a step need not fit in a byte
    line = FaultLine(**{**TIL2._asdict(),
                         "segments": {"H": (128, 0, 1), "S": (-2, 1, 1)}})
    word = iterate(line.rule, "H", 3)
    layout = _block_layout(line, 3, k=2)
    u, v = zip(*map(layout.vertex, range(len(word) + 1)))
    assert u == (0, *itertools.accumulate(128 if c == "H" else -2 for c in word))
    assert v == (0, *itertools.accumulate(int(c == "S") for c in word))
