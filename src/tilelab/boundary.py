"""One-dimensional substitution systems on fault-line edge words, the
half-word imbalance f(n), and exact slippage measurements.

A fault line is an edge both of whose sides keep subdividing without
interlocking.  Two subdivisions of the shape act on the edge word as a
letter substitution; laying the word out with its geometric segment
lengths and mirroring it (the opposite side is the same pattern rotated
by pi) turns adjacency questions into questions about vertex offsets.
All offset arithmetic is exact: positions are integer pairs (u, v)
valued u + v*sqrt(D), so equality and ordering never depend on floats.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple

from .errors import ArgumentError, InternalError, ResourceError, as_count
from .spectral import count_vectors

DEFAULT_LETTER_CAP = 10 ** 8


class _RuleFields(NamedTuple):
    name: str
    chars: str              # the alphabet
    images: dict[str, str]  # letter -> image


class SubstitutionRule1D(_RuleFields):
    """A letter substitution on words stored as str, one character a letter."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        pool = set(self.chars)
        if set(self.images) != pool:
            raise ArgumentError(f"{self.name}: images must cover {self.chars!r}")
        for ch, img in self.images.items():
            if not set(img) <= pool:
                raise ArgumentError(
                    f"{self.name}: image of {ch!r} uses letters outside the alphabet")
        return self

    def abelianization(self) -> list[list[int]]:
        """Column j counts the letters in the image of chars[j]."""
        return [[self.images[cj].count(ci) for cj in self.chars]
                for ci in self.chars]


class _FaultLineFields(NamedTuple):
    rule: SubstitutionRule1D
    segments: dict[str, tuple[int, int, int]]
    D: int
    leg: str


class FaultLine(_FaultLineFields):
    """A fault-line system: the 1D rule of its edge word and the exact
    letter lengths that lay the word out.

    ``segments`` maps each letter char to (du, dv, count): the letter
    covers ``count`` segments, each of length du + dv*sqrt(D).  ``leg`` is
    the letter whose surplus a balanced pair records.
    """

    # no __slots__: the instance dict keeps the blocks of _block_layout
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        name = self.rule.name
        if set(self.segments) != set(self.rule.chars):
            raise ArgumentError(
                f"{name}: segments must cover exactly {self.rule.chars!r}")
        if self.leg not in self.rule.chars:
            raise ArgumentError(f"{name}: leg {self.leg!r} is not a letter")
        if not self.rule.chars.isascii():
            raise ArgumentError(f"{name}: a layout takes one byte a letter, "
                                f"but {self.rule.chars!r} is not ASCII")
        for c, (du, dv, count) in self.segments.items():
            if count < 1:
                raise ArgumentError(f"{name}: letter {c!r} has {count} segments")
            # vertices must strictly increase along the line
            if _sign(du, dv, self.D) <= 0:
                raise ArgumentError(f"{name}: the segment of {c!r}, "
                                    f"{du} + {dv}*sqrt({self.D}), is not positive")
        return self


def _letter_counts(rule: SubstitutionRule1D, seed: str):
    """Letter counts of sigma^0(seed), sigma^1(seed), ... in ``rule.chars``
    order (endless, exact)."""
    return count_vectors(rule.abelianization(),
                         [seed.count(c) for c in rule.chars])


def _nth(walk, n: int):
    return next(itertools.islice(walk, n, None))


def check_letter_cap(rule: SubstitutionRule1D, seed: str, n: int,
                     cap: int = DEFAULT_LETTER_CAP) -> None:
    """Raise up front what iterating ``seed`` n times would hit first:
    ArgumentError for a negative n or a seed letter outside the alphabet,
    then the ResourceError of the first of sigma^0(seed), ...,
    sigma^n(seed) that has more than ``cap`` letters.  The walk stops
    there, so any n, however large, is refused after a few steps of a
    growing rule."""
    n = as_count(n)
    if n < 0:
        raise ArgumentError(f"iteration count must be non-negative, got {n}")
    bad = set(seed) - set(rule.chars)
    if bad:
        raise ArgumentError(f"letters {bad} are not in the {rule.name} alphabet")
    for k, counts in zip(range(n + 1), _letter_counts(rule, seed)):
        length = sum(counts)
        if length > cap:
            raise ResourceError(
                f"{rule.name}: sigma^{k} would have {length} letters, cap is {cap}")


def iterate(rule: SubstitutionRule1D, seed: str, n: int,
            cap: int = DEFAULT_LETTER_CAP) -> str:
    """n-fold substitution of ``seed``; refuses to materialize past ``cap``.

    sigma^n(seed) is sigma^(n-h)(seed) with each letter c replaced by its
    block sigma^h(c), h = n // 2: the blocks are built level by level by
    joining the previous level's blocks, so only the final join touches
    every letter.
    """
    check_letter_cap(rule, seed, n, cap)
    letters = seed
    half = n // 2
    table = {ord(c): img for c, img in rule.images.items()}
    for _ in range(n - half):
        letters = letters.translate(table)
    if half:
        blocks = {c: c for c in rule.chars}
        for _ in range(half):
            blocks = {c: "".join([blocks[d] for d in img])
                      for c, img in rule.images.items()}
        letters = "".join([blocks[c] for c in letters])
    return letters


# -- the Til(1/2) systems -----------------------------------------------------

# Four-letter system: one application is two subdivisions of the shape,
# acting on hypotenuse (H) and long-leg (L) edge letters signed by whether
# the owning tile's edge direction follows the fault line: H is H+, h is
# H-, L is L+ and l is L-.
def sigma0_til12() -> SubstitutionRule1D:
    return SubstitutionRule1D(
        name="til12-signed", chars="HhLl",
        images={"H": "LlH", "h": "hLl", "L": "HH", "l": "hh"})


# Three-letter contraction: adjacent L+L- pairs fuse into a single L
# spanning two legs; H is H+ and h is H-.
def sigma_til12() -> SubstitutionRule1D:
    return SubstitutionRule1D(
        name="til12", chars="HhL",
        images={"H": "LH", "h": "hL", "L": "HHhh"})


# -- exact prefix counting ----------------------------------------------------


class _PrefixCounter:
    """Letter counts over prefixes of sigma^n(seed) without materializing.

    Walks the expansion tree: at each level at most one child is entered,
    the others contribute their (memoized) whole-subtree counts.
    """

    def __init__(self, rule: SubstitutionRule1D):
        self.rule = rule
        self._walks = {c: _letter_counts(rule, c) for c in rule.chars}
        self._tables: list[dict[str, dict[str, int]]] = []

    def _level(self, k: int) -> dict[str, dict[str, int]]:
        while len(self._tables) <= k:
            self._tables.append({c: dict(zip(self.rule.chars, next(walk)))
                                 for c, walk in self._walks.items()})
        return self._tables[k]

    def counts(self, letter: str, n: int) -> dict[str, int]:
        return self._level(n)[letter]

    def length(self, letter: str, n: int) -> int:
        return sum(self._level(n)[letter].values())

    def prefix_count(self, letter: str, n: int, prefix: int, targets: str) -> int:
        total = 0
        while True:
            if prefix <= 0:
                return total
            if prefix >= self.length(letter, n):
                return total + sum(self.counts(letter, n)[d] for d in targets)
            # n > 0 here: at n == 0 the length is 1 and both branches above fire
            for ch in self.rule.images[letter]:
                clen = self.length(ch, n - 1)
                if prefix >= clen:
                    total += sum(self.counts(ch, n - 1)[d] for d in targets)
                    prefix -= clen
                else:
                    letter, n = ch, n - 1
                    break
            else:
                raise InternalError("prefix walk exhausted an image")


_f_counter: _PrefixCounter | None = None


def f_of_n(n: int) -> int:
    """L-imbalance between the halves of the n-th hypotenuse word.

    Halves are split by letter count (lengths are even for n >= 1); the
    value is exact for any n, large words are never materialized.
    """
    n = as_count(n)
    if n < 1:
        raise ArgumentError(f"n must be at least 1, got {n}")
    global _f_counter
    if _f_counter is None:
        _f_counter = _PrefixCounter(TIL12.rule)
    pc = _f_counter
    total_len = pc.length("H", n)
    if total_len % 2:
        raise InternalError(f"sigma^{n}(H+) has odd length {total_len}")
    first_l = pc.prefix_count("H", n, total_len // 2, "L")
    return 2 * first_l - pc.counts("H", n)["L"]


_H_TO_UPPER = bytes.maketrans(b"h", b"H")


def forbidden_subwords_check(word: str) -> bool:
    """True iff the word avoids LL, H-H+ adjacency, and 7 consecutive H's.

    LL and hH are searched in the str itself; the 7-runs of {H, h} in
    slices of it (see ``_avoids_forbidden``), so no copy of the whole word
    is made.
    """
    return _avoids_forbidden(word)


def _avoids_forbidden(letters: str, size: int = 1 << 16) -> bool:
    """``forbidden_subwords_check`` on a str, scanning the 7-runs in slices
    of ``size`` letters that overlap by 6, so every 7 consecutive letters
    lie in one slice.  Each slice is searched as bytes with h mapped to H:
    UTF-8 encodes every non-ASCII character with bytes >= 0x80, so the
    ASCII pattern matches exactly where it matches the str.
    """
    if "LL" in letters or "hH" in letters:
        return False
    for i in range(0, len(letters), size):
        raw = letters[i:i + size + 6].encode("utf-8", "surrogatepass")
        if b"HHHHHHH" in raw.translate(_H_TO_UPPER):
            return False
    return True


def _factors(word: str, k: int) -> set[str]:
    return {word[i:j] for i in range(len(word))
            for j in range(i + 1, min(i + k, len(word)) + 1)}


def legal_factors(rule: SubstitutionRule1D, k: int) -> list[frozenset[str]]:
    """The sets F_0, F_1, ... of the factors of length at most ``k`` of
    sigma^n(H), up to the first set that repeats an earlier one.

    F_(n+1) follows from F_n alone.  Every image has at least two letters
    (checked), so a factor of sigma(w) of length at most k lies in
    sigma(u) for a factor u of w of at most k // 2 + 1 <= k letters, and
    every factor of such a sigma(u) is one of sigma(w).  The map from F_n
    to F_(n+1) is fixed, so from the repeated set on the sets cycle
    through ones already listed: every factor of length at most k of every
    sigma^n(H) is in one of the returned sets.  That makes a check of
    patterns of at most k letters, such as the til12 forbidden subwords
    with k = 7, a proof for all n.
    """
    k = as_count(k, "factor length")
    if k < 1:
        raise ArgumentError(f"factor length must be at least 1, got {k}")
    if min(map(len, rule.images.values())) < 2:
        raise ArgumentError(f"{rule.name}: every image needs at least two "
                            "letters to bound the factors it maps")
    table = {ord(c): img for c, img in rule.images.items()}
    sets = [frozenset(_factors("H", k))]
    while sets[-1] not in sets[:-1]:
        sets.append(frozenset().union(*(_factors(u.translate(table), k)
                                        for u in sets[-1] if len(u) <= k // 2 + 1)))
    return sets


# -- exact quadratic-integer layout -------------------------------------------


def _sign_quad(A: np.ndarray, B: np.ndarray, D: int) -> np.ndarray:
    """Vectorized sign of A + B*sqrt(D) for integer arrays (exact).

    x -> x*|x| is increasing, so sign(A + B sqrt D) = sign(A|A| + D B|B|);
    int64 holds that sum exactly while |A| < 2**31 and D B**2 < 2**62.
    """
    import numpy as np
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.size:
        a = max(-int(A.min()), int(A.max()))
        b = max(-int(B.min()), int(B.max()))
        if a >= 2 ** 31 or D * b * b >= 2 ** 62:
            raise InternalError(
                f"sign of A + B*sqrt({D}) with |A| <= {a}, |B| <= {b} "
                "overflows int64")
    q = np.abs(A)
    q *= A
    r = np.abs(B)
    r *= B
    r *= D
    q += r
    return np.sign(q, out=q)


def _sign(a: int, b: int, D: int) -> int:
    """Sign of a + b*sqrt(D) for Python ints, as ``_sign_quad``."""
    q = a * abs(a) + D * b * abs(b)
    return (q > 0) - (q < 0)


def _running_sums(codes: bytes, steps: dict[str, tuple[int, ...]]):
    """Running sums from 0 of the steps of the letters ``codes`` spells,
    one byte a letter: one int64 array per step component, each taken
    through a 256-entry table and summed in place."""
    import numpy as np
    table = np.zeros((len(next(iter(steps.values()))), 256), dtype=np.int64)
    for c, step in steps.items():
        table[:, ord(c)] = step
    index = np.frombuffer(codes, dtype=np.uint8)
    sums = []
    for row in table:
        x = np.zeros(len(codes) + 1, dtype=np.int64)
        row.take(index, out=x[1:])
        np.cumsum(x, out=x)
        sums.append(x)
    return tuple(sums)


class _Layout:
    """Vertex coordinates (u, v) of a word read as a skeleton of blocks,
    each the vertex coordinates of its letter's word from (0, 0), held
    once.  Columns: ``codes``, per skeleton letter the number x of its
    block, held in ``fu``, ``fv`` from ``at[x]`` to ``at[x + 1]``; and
    ``starts``, ``su``, ``sv``, the index and coordinates of the vertex
    each block starts at (a block's last vertex is the next one's
    first), then of the word's last.  A raw (u, v) pair is the layout of
    skeleton "H" with that one block.
    """

    def __init__(self, skeleton: str, blocks: dict[str, tuple]):
        import numpy as np
        chars = sorted(blocks)
        table = np.zeros(256, dtype=np.uint8)
        table[[ord(c) for c in chars]] = range(len(chars))
        codes = skeleton.encode("ascii")
        self.codes = table[np.frombuffer(codes, dtype=np.uint8)]
        self.starts, self.su, self.sv = _running_sums(codes, {
            c: (len(blocks[c][0]) - 1, int(blocks[c][0][-1]), int(blocks[c][1][-1]))
            for c in chars})
        self.last = int(self.starts[-1])
        self.at = np.cumsum([0] + [len(blocks[c][0]) for c in chars])
        self.fu, self.fv = (np.concatenate([blocks[c][z] for c in chars]).astype(np.int64)
                            for z in (0, 1))

    def vertex(self, i: int) -> tuple[int, int]:
        # the last block starting at or before vertex i
        j = min(int(self.starts.searchsorted(i, "right")), len(self.codes)) - 1
        k = self.at[self.codes[j]] + i - self.starts[j]
        return int(self.su[j] + self.fu[k]), int(self.sv[j] + self.fv[k])


def _block_layout(line: FaultLine, n: int, k: int = 5) -> _Layout:
    """sigma^n(H) as the skeleton sigma^(n-k)(H) of the blocks sigma^k(c),
    after the refusals ``iterate`` would make for the whole word.  With
    n <= k the skeleton is H and its one block is the whole word.  Blocks
    are built once per fault line and kept on it; a letter of several
    segments is repeated in the block's word (til12: L -> LL), one byte a
    segment.  A til12 block of depth 5 has 123 to 188 segments, a size at
    which ``_nearest_offsets`` ran fastest for n = 16 to 18."""
    check_letter_cap(line.rule, "H", n)
    depth = min(n, k)
    skeleton = iterate(line.rule, "H", n - depth)
    blocks = vars(line).setdefault("_blocks", {})
    steps = {c: (du, dv) for c, (du, dv, _) in line.segments.items()}
    for c in set(skeleton) - {c for c, d in blocks if d == depth}:
        letters = iterate(line.rule, c, depth)
        for d, (_, _, count) in line.segments.items():
            if count != 1:
                letters = letters.replace(d, d * count)
        blocks[c, depth] = _running_sums(letters.encode("ascii"), steps)
    return _Layout(skeleton, {c: blocks[c, depth] for c in set(skeleton)})


def _positions(u, v, root: float):
    """Float positions float(v) * root + float(u) of int64 coordinates."""
    return v * root + u


def _ranges(starts, counts):
    """starts[0], ..., starts[0] + counts[0] - 1, starts[1], ... in one array."""
    import numpy as np
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


def _nearest_offsets(layout: _Layout, D: int,
                     chunk: int = 1 << 14) -> dict[int, float]:
    """Distinct nearest-vertex offsets between a word and its mirror.

    ``layout`` holds the side-1 vertices from (0, 0), strictly increasing
    in value.  The mirrored side has vertices at total - x; each is
    matched to its nearest side-1 vertex, the earlier one at a tie.
    Distinct offsets are keyed by the exact leg-count difference dv
    (which pins the offset bijectively); values are representative
    lengths, in order of first appearance along the mirrored side.

    The mirrored side is the layout's blocks reflected, in reverse
    skeleton order.  A mirrored block's configuration is its letter, the
    letters of the forward blocks its span meets plus one either side,
    and the exact (du, dv) of the first of those from the mirrored
    block's start; it alone decides the nearest vertices, so each is
    matched once (``_match``).  ``_match`` decides every offset exactly:
    its operands are differences of adjacent vertices, far inside the
    int64 headroom of ``_sign_quad`` whatever the coordinates.  The blocks
    met come from a float search over the block boundaries, each within
    2**-52 (max|v| sqrt(D) + max|u|) of its exact value.  While vertex
    gaps exceed that rounding, so do blocks, and the search misses the
    first or the last block met by at most one, which the slack block
    either side then holds.  The blocks met hold the vertices at or
    before and at or after each mirrored vertex, so the slack never
    drops the nearest one.  A stretch at either end of the word has no
    slack block there, so its letters mark the end.

    Configurations are numbered by their first appearance and matched in
    that order, about ``chunk`` mirrored vertices a batch, each one's in
    mirrored order.  A key's first vertex lies in its configuration's
    first block, so keys enter the dict in the order of a vertex by
    vertex scan.  The skeleton is read ``chunk`` blocks at a time.
    """
    import numpy as np
    codes, su, sv = layout.codes, layout.su, layout.sv
    J = len(codes)
    fs = _positions(su, sv, math.sqrt(D))   # block boundaries
    digit = len(layout.at)                   # letters 1.., 0 past the stretch
    step = max(chunk // int(np.diff(layout.at).max()), 1)
    seen = np.empty((3, 0), dtype=np.int64)
    out: dict[int, float] = {}
    for top in range(J, 0, -chunk):
        j = np.arange(top - 1, max(top - chunk, 0) - 1, -1)   # mirrored order
        lo = np.maximum(fs.searchsorted(fs[-1] - fs[j + 1], "right") - 2, 0)
        hi = np.minimum(fs.searchsorted(fs[-1] - fs[j], "left") + 1, J)
        width = int((hi - lo).max())
        if (width + 1) * math.log2(digit) >= 63:
            raise InternalError(f"a mirrored block meets {width} blocks")
        key = np.zeros(len(j), dtype=np.int64)
        for i in range(width - 1, -1, -1):
            key *= digit
            key += np.where(lo + i < hi, codes[np.minimum(lo + i, J - 1)] + 1, 0)
        Ru, Rv = su[-1] - su[j + 1], sv[-1] - sv[j + 1]   # mirrored block starts
        rows = np.stack([key * digit + codes[j], su[lo] - Ru, sv[lo] - Rv])
        # lexsort is stable: a seen row sorts before the window's equal ones
        both = np.concatenate([seen, rows], axis=1)
        order = np.lexsort(both)
        both = both[:, order]
        head = np.append(True, (both[:, 1:] != both[:, :-1]).any(axis=0))
        new = order[head] - seen.shape[1]
        del key, both, order, head
        new = np.sort(new[new >= 0])
        seen = np.concatenate([seen, rows[:, new]], axis=1)
        for a in range(0, len(new), step):
            pick = new[a:a + step]
            keys, vals = _match(layout, D, codes[j[pick]], lo[pick], hi[pick],
                                Ru[pick], Rv[pick])
            for k, val in zip(keys, vals):
                out.setdefault(k, val)
    return out


def _match(layout: _Layout, D: int, c, lo, hi, Ru, Rv):
    """Keys and values, in order of first appearance, of a batch of
    configurations: mirrored blocks ``c`` from (Ru, Rv), each against the
    forward blocks lo..hi-1, in coordinates from the mirrored block's
    start.  A forward block keeps its vertices from the second at or
    before the mirrored span's start to the second at or past its end
    (one more each side, as the floats of this cut and of the search
    round apart), less its first (its predecessor's last).  Floats of
    each letter's block and of each configuration are shifted by its
    number times a stride past the longest stretch, so one search finds
    the neighbours within it; the shift rounds far below a vertex gap,
    so it moves only a search that lands on a vertex, by one, and either
    neighbour pair picks it.

    Which neighbour is nearer (the sign of 2y - prev - next) and the sign
    of each offset y - nearest are decided exactly by ``_sign_quad``.  Its
    operands are differences of a mirrored vertex and the forward
    vertices beside it, so they sit far inside its int64 headroom
    whatever the coordinates.  Floats only find the neighbours and give
    the values.  Each float position is within E = 2**-52 (max|v| sqrt(D)
    + max|u|) of the exact one; the search is off by one only for a
    mirrored vertex within 2E of a forward one, which both neighbour
    pairs hold, so it is right while vertex gaps exceed the positions'
    rounding.
    """
    import numpy as np
    root = math.sqrt(D)
    at, fu, fv = layout.at, layout.fu, layout.fv
    ends = _positions(fu[at[1:] - 1], fv[at[1:] - 1], root)
    stride = 8 * float(ends.max())
    # the mirrored blocks: each block's end minus the block read backwards
    n = np.diff(at)[c]
    mq = np.repeat(np.arange(len(c)), n)
    e = at[c + 1] - 1
    back = (e + at[c])[mq] - _ranges(at[c], n)
    yu, yv = fu[e][mq] - fu[back], fv[e][mq] - fv[back]
    del back
    # the forward blocks m of configuration pq, from its mirrored block's start
    pq = np.repeat(np.arange(len(c)), hi - lo)
    m = _ranges(lo, hi - lo)
    x = layout.codes[m]
    ou, ov = layout.su[m] - Ru[pq], layout.sv[m] - Rv[pq]
    ff = _positions(fu, fv, root)
    ff += np.repeat(np.arange(len(ends)) * stride, np.diff(at))
    of = x * stride - _positions(ou, ov, root)
    ta = np.maximum(ff.searchsorted(of, "right") - 2, at[x] + (m != lo[pq]))
    tb = np.minimum(ff.searchsorted(of + ends[c[pq]], "left") + 2, at[x + 1])
    count = np.maximum(tb - ta, 0)
    i = _ranges(ta, count)
    xu, xv = fu[i] + np.repeat(ou, count), fv[i] + np.repeat(ov, count)
    del i, m, x, ou, ov, ff, of, ta, tb
    # kept vertices lie a gap or more below and above each mirrored one,
    # but at the word's ends: the search stays in the stretch, and only
    # the first mirrored vertex lands on its stretch's first vertex, 0
    idx = (np.repeat(pq * stride, count) + _positions(xu, xv, root)).searchsorted(
        mq * stride + _positions(yu, yv, root))
    idx = np.maximum(idx, 1)
    # 2*y - (prev + next) > 0: y is past the midpoint, next is nearer
    s = _sign_quad(2 * yu - xu[idx - 1] - xu[idx], 2 * yv - xv[idx - 1] - xv[idx], D)
    choice = idx - (s <= 0)
    du, dv = yu - xu[choice], yv - xv[choice]
    # unsigned offset: flip the pairs whose value is negative
    neg = _sign_quad(du, dv, D) < 0
    np.negative(du, out=du, where=neg)
    np.negative(dv, out=dv, where=neg)
    keys, first = np.unique(dv, return_index=True)
    order = np.argsort(first)
    keys, first = keys[order], first[order]
    vals = du[first].astype(np.float64) + keys.astype(np.float64) * root
    return keys.tolist(), vals.tolist()


# -- Til(1/2) slippage --------------------------------------------------------


class SlippageProfile(NamedTuple):
    n: int
    f: int
    g_at_Q: int
    distinct_offsets: tuple[float, ...]
    offset_keys: tuple[int, ...]  # exact identities behind the lengths


# Units where the abutting tiles have c = 4 and b = sqrt(17) - 1: an H
# covers one hypotenuse, an L covers two legs with a vertex in between.
TIL12 = FaultLine(sigma_til12(), {"H": (4, 0, 1), "h": (4, 0, 1),
                                  "L": (-1, 1, 2)}, 17, "L")


def slippage_til12(n: int) -> SlippageProfile:
    """Lay the n-th word against its mirror and measure the disagreement.

    ``g_at_Q``: complete legs left of the midpoint minus complete legs of
    the mirrored side left of the midpoint (computed exactly).  The
    offsets are the distinct nearest-vertex contact lengths; c = 4 wide
    windows never recur, so the dv key already is the mod-c reduction.
    The word is read through ``_block_layout``, never laid out whole: the
    bisects for Q read single vertices, and the offsets are matched once
    per distinct block overlap.
    """
    layout = _block_layout(TIL12, n)
    # segment i runs from vertex i to i + 1, and vertices strictly increase:
    # the legs fully in [0, Q] end at or before the last vertex with
    # 2x <= total, the mirrored side's start at or after the first with
    # 2x >= total.  A leg segment steps v by 1 and no other segment moves
    # v, so v counts the legs up to each vertex.
    U, V = layout.vertex(layout.last)

    def past_q(i: int) -> int:
        x, y = layout.vertex(i)
        return _sign(2 * x - U, 2 * y - V, TIL12.D)

    vertices = range(layout.last + 1)
    up_to_q = bisect.bisect_right(vertices, 0, key=past_q)
    from_q = bisect.bisect_left(vertices, 0, key=past_q)
    side1 = layout.vertex(up_to_q - 1)[1]
    side2 = V - layout.vertex(from_q)[1]
    offsets = _nearest_offsets(layout, TIL12.D)
    keys = tuple(sorted(offsets))
    return SlippageProfile(
        n=n,
        f=f_of_n(n),
        g_at_Q=side1 - side2,
        distinct_offsets=tuple(sorted(offsets.values())),
        offset_keys=keys,
    )


# -- Til(2): bounded slippage -------------------------------------------------


@functools.cache
def til2_rule() -> SubstitutionRule1D:
    """Hypotenuse/short-leg system of the a < b/2 exceptional shape.

    The images are those the subdivided p/q = 2/1 triangle shows along
    its hypotenuse (``tests/test_boundary.py`` reads them off it again).
    """
    return SubstitutionRule1D(name="til2", chars="HS",
                              images={"H": "HHHHS", "S": "H"})


def til2_identity_check(n: int) -> bool:
    """Exact eigen-identity for the letter counts of the n-th word.

    (sqrt5 - 2) H_n - S_n = -(2 - sqrt5)^{n+1}, checked by matching the
    rational and sqrt5 parts as integers.
    """
    n = as_count(n)
    if n < 0 or n > 40:
        raise ArgumentError(f"n must lie in 0..40, got {n}")
    h, s = _nth(_letter_counts(til2_rule(), "H"), n)
    # (2 - sqrt5)^{n+1} = A + B*sqrt5 exactly
    A, B = 1, 0
    for _ in range(n + 1):
        A, B = 2 * A - 5 * B, 2 * B - A
    return -2 * h - s == -A and h == -B


# Til(2) units: c = 1, short leg sqrt5 - 2.
TIL2 = FaultLine(til2_rule(), {"H": (1, 0, 1), "S": (-2, 1, 1)}, 5, "S")


def til2_slippage_bound(n: int) -> int:
    """Max |f_n(E)| over all vertices E: the short-leg surplus between the
    two sides of the fault line up to E.

    Read off the level-n balanced pairs (``til2_pairs``), so no word is
    built, but n is refused as ``iterate`` would refuse it.  1 and
    sqrt5 - 2 are independent over Q, so where a cut ends both sides have
    the same short-leg count and f is 0; in between, f is the running
    surplus of one pair, and max |f| is the largest surplus of a level-n
    pair.
    """
    return max(p.surplus for p in _level(TIL2, til2_pairs(), n))


def til2_offsets(n: int) -> dict[int, float]:
    """Distinct nearest-vertex contact lengths across the fault line,
    keyed by the exact short-leg-count difference: the offsets of the
    level-n balanced pairs, merged."""
    return _level_offsets(TIL2, til2_pairs(), n)


# -- Til(1/3): dyadic fault line ----------------------------------------------


@functools.cache
def til13_rule() -> SubstitutionRule1D:
    """Three-letter system of the theta = pi/4 shape (H, medium L, small h).

    The images are those the subdivided p/q = 1/3 triangle shows along
    its hypotenuse (``tests/test_boundary.py`` reads them off it again).
    """
    return SubstitutionRule1D(name="til13", chars="HLh",
                              images={"H": "LLH", "L": "hh", "h": "H"})


def til13_fluctuation(n: int) -> int:
    """#H - #L in the n-th hypotenuse word (exact integers, any n <= 40)."""
    n = as_count(n)
    if n < 0 or n > 40:
        raise ArgumentError(f"n must lie in 0..40, got {n}")
    rule = til13_rule()
    counts = dict(zip(rule.chars, _nth(_letter_counts(rule, "H"), n)))
    return counts["H"] - counts["L"]


# Til(1/3) units: |h| = |L| = 1, |H| = 2, everything integer.  The
# lengths sit in v with D = 1 and u = 0, so that, as for irrational
# sqrt(D), a value has one (u, v) and the v part of an offset is the
# offset itself.
TIL13 = FaultLine(til13_rule(), {"H": (0, 2, 1), "L": (0, 1, 1), "h": (0, 1, 1)},
                  1, "L")


def til13_offsets(n: int) -> dict[int, float]:
    """Nearest-vertex offsets in h-units, keyed by themselves, merged from
    the level-n balanced pairs; the fault line is integer-rigid, so the
    only possible values are 0 and 1."""
    return _level_offsets(TIL13, til13_pairs(), n)


# -- balanced pairs: the fault line for every n --------------------------------

PAIR_LETTER_CAP = 10 ** 4


class BalancedPair(NamedTuple):
    """Two equally long words, side 1 over the mirrored side, sharing no
    letter boundary strictly inside.

    ``image``: the indices of the pairs that (sigma(top), sigma~(bottom))
    cuts into, in order.  ``surplus``: the largest |#leg completed on top
    - #leg completed on bottom| up to any point of the pair, for the leg
    letter of the fault line (til2's short leg S).  ``offsets``:
    nearest-vertex offsets of the bottom vertices against the top ones,
    keyed and valued as ``_nearest_offsets``, in order of first
    appearance.
    """

    top: str
    bottom: str
    image: tuple[int, ...]
    surplus: int
    offsets: dict[int, float]


def _vertices(word: str, line: FaultLine):
    """Exact vertex positions (u, v) of a word from (0, 0), and the index
    of the vertex at which each letter ends."""
    pos, ends = [(0, 0)], []
    u = v = 0
    for c in word:
        du, dv, count = line.segments[c]
        for _ in range(count):
            u, v = u + du, v + dv
            pos.append((u, v))
        ends.append(len(pos) - 1)
    return pos, ends


def _cut(top: str, bottom: str, line: FaultLine) -> list[tuple[str, str]]:
    """Cut a balanced pair at every letter boundary the two sides share.

    Two positions are equal exactly when their (u, v) are (see the
    fault-line records above)."""
    tpos, tends = _vertices(top, line)
    bpos, bends = _vertices(bottom, line)
    if tpos[-1] != bpos[-1]:
        raise ArgumentError(f"({top}, {bottom}) is not balanced: the lengths "
                            "are not an eigenvector of the substitution")
    common = {tpos[e] for e in tends} & {bpos[e] for e in bends}

    def pieces(word, pos, ends):
        out, start = [], 0
        for i, e in enumerate(ends):
            if pos[e] in common:
                out.append(word[start:i + 1])
                start = i + 1
        return out

    return list(zip(pieces(top, tpos, tends), pieces(bottom, bpos, bends)))


def _surplus(top: str, bottom: str, line: FaultLine) -> int:
    """The largest |#leg ended on top - #leg ended on bottom| over the
    merged letter ends (equal ends taken together); the count only steps
    at letter ends, so that covers every point of the pair."""
    tpos, tends = _vertices(top, line)
    bpos, bends = _vertices(bottom, line)
    running = out = 0
    i = j = 0
    while i < len(top) or j < len(bottom):
        if i == len(top):
            s = 1
        elif j == len(bottom):
            s = -1
        else:
            x, y = tpos[tends[i]], bpos[bends[j]]
            s = _sign(x[0] - y[0], x[1] - y[1], line.D)
        if s <= 0:
            running += top[i] == line.leg
            i += 1
        if s >= 0:
            running -= bottom[j] == line.leg
            j += 1
        out = max(out, abs(running))
    return out


def _pair_offsets(top: str, bottom: str, line: FaultLine) -> dict[int, float]:
    """Offsets of each bottom vertex to its nearest top vertex, with the
    rule of ``_nearest_offsets`` decided exactly: the neighbours are the
    first top vertex at or past it (as np.searchsorted, kept in 1..last)
    and the one before, and a midpoint goes to the earlier one."""
    D = line.D
    tops, _ = _vertices(top, line)
    bots, _ = _vertices(bottom, line)
    last = len(tops) - 1
    out: dict[int, float] = {}
    k = 1
    for xu, xv in bots:
        while k < last and _sign(xu - tops[k][0], xv - tops[k][1], D) > 0:
            k += 1
        (pu, pv), (nu, nv) = tops[k - 1], tops[k]
        near_u, near_v = ((nu, nv) if _sign(2 * xu - pu - nu, 2 * xv - pv - nv, D) > 0
                          else (pu, pv))
        du, dv = xu - near_u, xv - near_v
        if _sign(du, dv, D) < 0:
            du, dv = -du, -dv
        out.setdefault(dv, float(du) + float(dv) * math.sqrt(D))
    return out


def balanced_pairs(line: FaultLine) -> tuple[BalancedPair, ...] | None:
    """Close the irreducible balanced pairs of the fault line of sigma^n(H).

    The mirrored side of sigma^n(H) is its reverse, sigma~^n(H), where
    sigma~ reverses every image.  Starting from (H, H), each pair is
    mapped by (sigma, sigma~) and cut at every shared letter boundary
    (lengths are compared exactly); a cut persists under the map, because
    both sides of a balanced pair scale by the same factor.  Repeat until
    no new pair appears.  The cut of level n is then the level-n pairs of
    ``pair_levels``, so anything local to the pairs (surplus, offsets)
    holds for every n.  Returns None once the pairs found hold more than
    PAIR_LETTER_CAP letters: til12 never closes.
    """
    rule = line.rule
    tilde = {c: img[::-1] for c, img in rule.images.items()}
    found = [("H", "H")]
    index = {found[0]: 0}
    images = []
    letters = 2
    for top, bottom in found:       # grows while it is walked
        image = []
        for piece in _cut("".join([rule.images[c] for c in top]),
                          "".join([tilde[c] for c in bottom]), line):
            if piece not in index:
                letters += len(piece[0]) + len(piece[1])
                if letters > PAIR_LETTER_CAP:
                    return None
                index[piece] = len(found)
                found.append(piece)
            image.append(index[piece])
        images.append(tuple(image))
    return tuple(BalancedPair(top, bottom, image,
                              _surplus(top, bottom, line),
                              _pair_offsets(top, bottom, line))
                 for (top, bottom), image in zip(found, images))


def pair_levels(pairs: tuple[BalancedPair, ...]):
    """The pairs that occur in the cut of level n = 0, 1, 2, ... (endless)."""
    matrix = [[p.image.count(i) for p in pairs] for i in range(len(pairs))]
    for counts in count_vectors(matrix, [1] + [0] * (len(pairs) - 1)):
        yield tuple(p for p, k in zip(pairs, counts) if k)


def _level(line: FaultLine, pairs: tuple[BalancedPair, ...],
           n: int) -> tuple[BalancedPair, ...]:
    """The pairs of level n, after the refusals ``iterate`` would make
    for sigma^n(H), whose letters the pairs hold between them."""
    check_letter_cap(line.rule, "H", n)
    return _nth(pair_levels(pairs), n)


def _level_offsets(line: FaultLine, pairs: tuple[BalancedPair, ...],
                   n: int) -> dict[int, float]:
    return {k: v for p in _level(line, pairs, n) for k, v in p.offsets.items()}


def _closed(line: FaultLine) -> tuple[BalancedPair, ...]:
    pairs = balanced_pairs(line)
    if pairs is None:
        raise InternalError(f"{line.rule.name}: balanced pairs did not close")
    return pairs


@functools.cache
def til2_pairs() -> tuple[BalancedPair, ...]:
    return _closed(TIL2)


@functools.cache
def til13_pairs() -> tuple[BalancedPair, ...]:
    return _closed(TIL13)
