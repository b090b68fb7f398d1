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
from dataclasses import dataclass

from .errors import ArgumentError, InternalError, ResourceError
from .geometry import TriangleShape
from .spectral import count_vectors
from .substitution import build_Tn, trace_edge

DEFAULT_LETTER_CAP = 10 ** 8


@dataclass(frozen=True)
class Word:
    """Letters over a tiny alphabet, stored one character per letter."""

    letters: str
    alphabet: tuple[str, ...]
    chars: str  # chars[i] encodes alphabet[i]

    def __len__(self) -> int:
        return len(self.letters)

    def counts(self) -> dict[str, int]:
        return {name: self.letters.count(ch)
                for name, ch in zip(self.alphabet, self.chars)}


@dataclass(frozen=True)
class SubstitutionRule1D:
    name: str
    alphabet: tuple[str, ...]
    chars: str
    images: dict[str, str]  # char -> encoded image

    def __post_init__(self) -> None:
        pool = set(self.chars)
        if set(self.images) != pool:
            raise ArgumentError(f"{self.name}: images must cover {self.chars!r}")
        for ch, img in self.images.items():
            if not set(img) <= pool:
                raise ArgumentError(
                    f"{self.name}: image of {ch!r} uses letters outside the alphabet")

    def word(self, letters: str) -> Word:
        return Word(letters=letters, alphabet=self.alphabet, chars=self.chars)

    def abelianization(self) -> list[list[int]]:
        """Column j counts the letters in the image of alphabet[j]."""
        return [[self.images[cj].count(ci) for cj in self.chars]
                for ci in self.chars]


@dataclass(frozen=True)
class FaultLine:
    """A fault-line system: the 1D rule of its edge word and the exact
    letter lengths that lay the word out.

    ``segments`` maps each letter char to (du, dv, count): the letter
    covers ``count`` segments, each of length du + dv*sqrt(D).  ``leg`` is
    the letter whose surplus a balanced pair records.
    """

    rule: SubstitutionRule1D
    segments: dict[str, tuple[int, int, int]]
    D: int
    leg: str

    def __post_init__(self) -> None:
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


def iterate(rule: SubstitutionRule1D, seed: str | Word, n: int,
            cap: int = DEFAULT_LETTER_CAP) -> Word:
    """n-fold substitution of ``seed``; refuses to materialize past ``cap``.

    sigma^n(seed) is sigma^(n-h)(seed) with each letter c replaced by its
    block sigma^h(c), h = n // 2: the blocks are built level by level by
    joining the previous level's blocks, so only the final join touches
    every letter.
    """
    letters = seed.letters if isinstance(seed, Word) else seed
    check_letter_cap(rule, letters, n, cap)
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
    return rule.word(letters)


# -- the Til(1/2) systems -----------------------------------------------------

# Four-letter system: one application is two subdivisions of the shape,
# acting on hypotenuse (H) and long-leg (L) edge letters signed by whether
# the owning tile's edge direction follows the fault line.
_T12_ALPHABET4 = ("H+", "H-", "L+", "L-")
_T12_CHARS4 = "HhLl"

# Three-letter contraction: adjacent L+L- pairs fuse into a single L
# spanning two legs.
_T12_ALPHABET3 = ("H+", "H-", "L")
_T12_CHARS3 = "HhL"


def sigma0_til12() -> SubstitutionRule1D:
    return SubstitutionRule1D(
        name="til12-signed",
        alphabet=_T12_ALPHABET4,
        chars=_T12_CHARS4,
        images={"H": "LlH", "h": "hLl", "L": "HH", "l": "hh"},
    )


def sigma_til12() -> SubstitutionRule1D:
    return SubstitutionRule1D(
        name="til12",
        alphabet=_T12_ALPHABET3,
        chars=_T12_CHARS3,
        images={"H": "LH", "h": "hL", "L": "HHhh"},
    )


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


def forbidden_subwords_check(word: Word | str) -> bool:
    """True iff the word avoids LL, H-H+ adjacency, and 7 consecutive H's.

    LL and hH are searched in the str itself; the 7-runs of {H, h} in
    slices of it (see ``_avoids_forbidden``), so no copy of the whole word
    is made.
    """
    letters = word.letters if isinstance(word, Word) else word
    return _avoids_forbidden(letters)


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


def _vertex_coords(codes: bytes, segments: dict[str, tuple[int, int, int]]):
    """Vertex coordinates (u, v) from (0, 0) of a word of one segment per
    byte of ``codes``: each byte is mapped to its int8 step by a 256-byte
    table and written into the coordinates, whose running sum is then
    taken in place.

    |u| and |v| stay within max step * segments; under the default letter
    cap that is at most 4 * 2 * 10**8 < 2**31 (til12: steps up to 4, two
    segments per L), so int32 holds them.  Callers widen to int64 before
    combining coordinates.
    """
    import numpy as np
    luts = np.zeros((2, 256), dtype=np.int8)
    step = 0
    for c, (du, dv, _) in segments.items():
        if not (-128 <= du <= 127 and -128 <= dv <= 127):
            raise ArgumentError(
                f"the step ({du}, {dv}) of {c!r} does not fit in int8")
        luts[:, ord(c)] = du, dv
        step = max(step, abs(du), abs(dv))
    if len(codes) * step >= 2 ** 31:
        raise ResourceError(
            f"a layout of {len(codes)} segments may overflow int32 coordinates")
    coords = []
    for lut in luts:
        x = np.zeros(len(codes) + 1, dtype=np.int32)
        x[1:] = np.frombuffer(codes.translate(lut.tobytes()), dtype=np.int8)
        np.cumsum(x, out=x)
        coords.append(x)
    return tuple(coords)


def _layout(line: FaultLine, n: int, cap: int):
    """Vertex coordinates (u, v) of sigma^n(H) laid out from (0, 0), and
    the letter of each segment (a uint8 view of one byte per segment).

    A letter of several segments is repeated in the word itself (til12:
    L -> LL), which is then encoded once; the word is freed before the
    coordinates are allocated.  At the peak the coordinates are held
    beside the segment letters and one step array: 10 bytes a vertex.
    """
    import numpy as np
    letters = iterate(line.rule, "H", n, cap=cap).letters
    for c, (_, _, count) in line.segments.items():
        if count != 1:
            letters = letters.replace(c, c * count)
    codes = letters.encode("ascii")
    del letters
    u, v = _vertex_coords(codes, line.segments)
    return u, v, np.frombuffer(codes, dtype=np.uint8)


def _nearest_offsets(u: np.ndarray, v: np.ndarray, D: int,
                     chunk: int = 1 << 14) -> dict[int, float]:
    """Distinct nearest-vertex offsets between a word and its mirror.

    ``u, v`` are the side-1 vertex coordinates from (0, 0), strictly
    increasing in value.  The mirrored side has vertices at total - x;
    each is matched to its nearest side-1 vertex.  Distinct offsets are
    keyed by the exact leg-count difference dv (which pins the offset
    bijectively); values are representative lengths, in order of first
    appearance.  Mirrored vertices are matched ``chunk`` at a time, and
    float positions are computed only for the chunk and for the stretch
    of side-1 vertices it is searched in, so beyond the coordinates the
    kernel holds a fixed number of chunk-sized arrays, which stay in
    cache.  The stretch's ends are found by a scalar bisect whose key,
    float(v[i]) * root + float(u[i]), rounds as the array expression
    does, so every position is the same float bit for bit wherever it is
    computed.  Per vertex only the chosen neighbour, the sign and the key
    are computed; the u part and the value only at each key's first
    occurrence.

    Floats decide which neighbour is nearer and the sign of each offset,
    except within ``margin`` of zero, where the exact sign in Z[sqrt(D)]
    decides.  Each float position is within E = 2**-52 (max|v| sqrt(D) +
    total) of the exact one (one rounding each for sqrt(D), the product
    and the sum; every position lies in [0, total]).  A midpoint test
    adds up four positions and four more roundings of at most E/2 each,
    so 16 E covers it; an offset adds up fewer.  The two neighbours come
    from a float search, which is right while vertex gaps exceed the
    margin.
    """
    import numpy as np
    root = math.sqrt(D)
    U, V = int(u[-1]), int(v[-1])
    last = len(u) - 1

    def position(i: int) -> float:
        return float(v[i]) * root + float(u[i])

    def positions(part: slice) -> np.ndarray:
        fx = v[part].astype(np.float64)
        fx *= root
        fx += u[part]
        return fx

    total = position(last)
    vertices = range(last + 1)
    vmax = max(-int(v.min()), int(v.max()))
    margin = 16 * 2.0 ** -52 * (vmax * root + total)
    out: dict[int, float] = {}
    for hi in range(last + 1, 0, -chunk):
        # mirrored vertices i = last + 1 - hi, ...: total - vertex (last - i)
        part = slice(max(hi - chunk, 0), hi)
        mu, mv = u[part][::-1], v[part][::-1]
        s2f = np.subtract(total, positions(part)[::-1])
        # s2f is sorted, so the first vertex at or past each value lies in
        # lo..top, those of its ends; positions are needed only there and
        # at the neighbours either side, kept in 1..last
        lo, top = (bisect.bisect_left(vertices, x, key=position)
                   for x in (s2f[0], s2f[-1]))
        start = min(max(lo, 1), last) - 1
        fx = positions(slice(start, min(max(top, 1), last) + 1))
        idx = np.searchsorted(fx, s2f)
        np.clip(idx, 1 - start, last - start, out=idx)
        left = s2f - fx[idx - 1]
        right = fx[idx] - s2f
        choice = idx - (right >= left)
        # near-ties decided exactly: 2*x vs (prev + next) in Z[sqrt(D)]
        close = np.flatnonzero(np.abs(right - left) < margin)
        if close.size:
            nxt = idx[close] + start
            A = 2 * (U - mu[close].astype(np.int64)) - u[nxt - 1] - u[nxt]
            B = 2 * (V - mv[close].astype(np.int64)) - v[nxt - 1] - v[nxt]
            s = _sign_quad(A, B, D)  # >0: x is past the midpoint, next is nearer
            choice[close] = np.where(s > 0, nxt, nxt - 1) - start
        offset = s2f - fx.take(choice)
        del fx, idx, left, right
        choice += start
        dv = np.subtract(V, mv, dtype=np.int64)
        dv -= v.take(choice)
        # unsigned offset: flip pairs whose value is negative, by the float
        # offset x - nearest (left or -right, bit for bit) except near
        # zero.  With dv = 0 the offset is the integer du, whose float sign
        # is right while the margin is below 1 (so at any int32
        # coordinates), or 0: no flip.
        neg = offset < 0
        near_zero = np.abs(offset, out=offset) < margin
        near_zero &= dv != 0
        unsure = np.flatnonzero(near_zero)
        if unsure.size:
            du = U - mu[unsure].astype(np.int64) - u[choice[unsure]]
            neg[unsure] = _sign_quad(du, dv[unsure], D) < 0
        np.negative(dv, out=dv, where=neg)
        kmin, kmax = int(dv.min()), int(dv.max())
        if kmax - kmin < len(dv):
            # the til2 and til12 keys span far fewer values than a chunk
            # (4,403 at til12 n = 18): first occurrences in one pass over
            # a dense table, no sort
            dv -= kmin
            first = np.full(kmax - kmin + 1, len(dv))
            np.minimum.at(first, dv, np.arange(len(dv)))
            keys = np.flatnonzero(first < len(dv))
            first = first[keys]
            keys += kmin
        else:   # keys far apart (a few vertices at large coordinates)
            keys, first = np.unique(dv, return_index=True)
        order = np.argsort(first)
        keys, first = keys[order], first[order]
        du = U - mu[first].astype(np.int64) - u[choice[first]]
        np.negative(du, out=du, where=neg[first])
        vals = du.astype(np.float64) + keys.astype(np.float64) * root
        for key, val in zip(keys.tolist(), vals.tolist()):
            out.setdefault(key, val)
    return out


# -- Til(1/2) slippage --------------------------------------------------------


@dataclass(frozen=True)
class SlippageProfile:
    n: int
    f: int
    g_at_Q: int
    distinct_offsets: tuple[float, ...]
    offset_keys: tuple[int, ...]  # exact identities behind the lengths


# Units where the abutting tiles have c = 4 and b = sqrt(17) - 1: an H
# covers one hypotenuse, an L covers two legs with a vertex in between.
TIL12 = FaultLine(sigma_til12(), {"H": (4, 0, 1), "h": (4, 0, 1),
                                  "L": (-1, 1, 2)}, 17, "L")


def slippage_til12(n: int, cap: int = DEFAULT_LETTER_CAP) -> SlippageProfile:
    """Lay the n-th word against its mirror and measure the disagreement.

    ``g_at_Q``: complete legs left of the midpoint minus complete legs of
    the mirrored side left of the midpoint (computed exactly).  The
    offsets are the distinct nearest-vertex contact lengths; c = 4 wide
    windows never recur, so the dv key already is the mod-c reduction.
    """
    import numpy as np
    u, v, seg_letter = _layout(TIL12, n, cap)
    # segment i runs from vertex i to i + 1, and vertices strictly increase:
    # the legs fully in [0, Q] end at or before the last vertex with
    # 2x <= total, the mirrored side's start at or after the first with
    # 2x >= total
    U, V = int(u[-1]), int(v[-1])

    def past_q(i: int) -> int:
        return _sign(2 * int(u[i]) - U, 2 * int(v[i]) - V, TIL12.D)

    vertices = range(len(u))
    up_to_q = bisect.bisect_right(vertices, 0, key=past_q)
    from_q = bisect.bisect_left(vertices, 0, key=past_q)
    side1 = int(np.count_nonzero(seg_letter[:up_to_q - 1] == ord(TIL12.leg)))
    side2 = int(np.count_nonzero(seg_letter[from_q:] == ord(TIL12.leg)))
    del seg_letter
    offsets = _nearest_offsets(u, v, TIL12.D)
    keys = tuple(sorted(offsets))
    return SlippageProfile(
        n=n,
        f=f_of_n(n),
        g_at_Q=side1 - side2,
        distinct_offsets=tuple(sorted(offsets.values())),
        offset_keys=keys,
    )


# -- Til(2): bounded slippage -------------------------------------------------


def trace_letters(segments) -> str:
    """Encode traced edge segments as signed letters (upper = aligned)."""
    out = []
    for seg in segments:
        if seg.kind == "H":
            out.append("H" if seg.sign > 0 else "h")
        elif seg.kind == "L":
            out.append("L" if seg.sign > 0 else "l")
        else:
            out.append("S" if seg.sign > 0 else "s")
    return "".join(out)


def _rule_from_geometry(shape: TriangleShape, name: str, alphabet, chars: str,
                        letter_of, generations) -> SubstitutionRule1D:
    """Read one-dimensional images off the subdivided shape itself.

    ``letter_of(segment, ranks)`` maps a traced edge segment to a letter
    char.  Images are extracted by span: the word of T_{g+2} restricted to
    a letter's interval in T_g is that letter's image (substitution acts
    locally along the edge).
    """
    images: dict[str, str] = {}
    tilings = {g: build_Tn(shape, g) for g in generations}
    words = {}
    for g, t in tilings.items():
        segs = trace_edge(t, "hypotenuse")
        words[g] = [(letter_of(s), s.position, s.position + s.length)
                    for s in segs]
    tol = 1e-9 * shape.c
    for g_from, g_to in zip(generations, generations[1:]):
        for letter, lo, hi in words[g_from]:
            if letter in images:
                continue
            img = [l for (l, s0, s1) in words[g_to]
                   if s0 >= lo - tol and s1 <= hi + tol]
            images[letter] = "".join(img)
    if set(images) != set(chars):
        raise InternalError(f"{name}: derived images for {sorted(images)}, "
                            f"expected alphabet {sorted(chars)}")
    return SubstitutionRule1D(name=name, alphabet=alphabet, chars=chars,
                              images=images)


def _til2_letter(seg) -> str:
    """Letter of a traced edge segment of the p/q = 2/1 shape."""
    if seg.size_class != 1:
        raise InternalError("a small tile touches the til2 fault line")
    return "H" if seg.kind == "H" else "S"


@functools.cache
def til2_rule() -> SubstitutionRule1D:
    """Hypotenuse/short-leg system of the a < b/2 exceptional shape.

    The images are what ``_rule_from_geometry`` reads off the subdivided
    p/q = 2/1 triangle with ``_til2_letter`` (the tests derive them again).
    """
    return SubstitutionRule1D(name="til2", alphabet=("H", "S"), chars="HS",
                              images={"H": "HHHHS", "S": "H"})


def til2_identity_check(n: int) -> bool:
    """Exact eigen-identity for the letter counts of the n-th word.

    (sqrt5 - 2) H_n - S_n = -(2 - sqrt5)^{n+1}, checked by matching the
    rational and sqrt5 parts as integers, then numerically at 50 digits.
    """
    if n < 0 or n > 40:
        raise ArgumentError(f"n must lie in 0..40, got {n}")
    h, s = _nth(_letter_counts(til2_rule(), "H"), n)
    # (2 - sqrt5)^{n+1} = A + B*sqrt5 exactly
    A, B = 1, 0
    for _ in range(n + 1):
        A, B = 2 * A - 5 * B, 2 * B - A
    exact = (-2 * h - s == -A) and (h == -B)
    import mpmath

    with mpmath.workdps(50):
        lhs = (mpmath.sqrt(5) - 2) * h - s
        rhs = -((2 - mpmath.sqrt(5)) ** (n + 1))
        numeric = abs(lhs - rhs) < mpmath.mpf("1e-9")
    return exact and bool(numeric)


# Til(2) units: c = 1, short leg sqrt5 - 2.
TIL2 = FaultLine(til2_rule(), {"H": (1, 0, 1), "S": (-2, 1, 1)}, 5, "S")


def til2_slippage_bound(n: int, cap: int = DEFAULT_LETTER_CAP) -> int:
    """Max |f_n(E)| over all vertices E: the short-leg surplus between the
    two sides of the fault line up to E.

    Read off the level-n balanced pairs (``til2_pairs``), so no word is
    built; ``cap`` refuses as ``iterate`` would.  1 and sqrt5 - 2 are
    independent over Q, so where a cut ends both sides have the same
    short-leg count and f is 0; in between, f is the running surplus of
    one pair, and max |f| is the largest surplus of a level-n pair.
    """
    return max(p.surplus for p in _level(TIL2, til2_pairs(), n, cap))


def til2_offsets(n: int, cap: int = DEFAULT_LETTER_CAP) -> dict[int, float]:
    """Distinct nearest-vertex contact lengths across the fault line,
    keyed by the exact short-leg-count difference: the offsets of the
    level-n balanced pairs, merged."""
    return _level_offsets(TIL2, til2_pairs(), n, cap)


# -- Til(1/3): dyadic fault line ----------------------------------------------


def _til13_letter(seg) -> str:
    """Letter of a traced edge segment of the p/q = 1/3 shape."""
    if seg.kind == "H" and seg.size_class == 1:
        return "H"
    if seg.kind == "L" and seg.size_class == 2:
        return "L"
    if seg.kind == "H" and seg.size_class == 3:
        return "h"
    raise InternalError(
        f"unexpected fault-line segment {seg.kind}/{seg.size_class}")


@functools.cache
def til13_rule() -> SubstitutionRule1D:
    """Three-letter system of the theta = pi/4 shape (H, medium L, small h).

    The images are what ``_rule_from_geometry`` reads off the subdivided
    p/q = 1/3 triangle with ``_til13_letter`` (the tests derive them again).
    """
    return SubstitutionRule1D(name="til13", alphabet=("H", "L", "h"),
                              chars="HLh",
                              images={"H": "LLH", "L": "hh", "h": "H"})


def til13_fluctuation(n: int) -> int:
    """#H - #L in the n-th hypotenuse word (exact integers, any n <= 40)."""
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


def til13_offsets(n: int, cap: int = DEFAULT_LETTER_CAP) -> dict[int, float]:
    """Nearest-vertex offsets in h-units, keyed by themselves, merged from
    the level-n balanced pairs; the fault line is integer-rigid, so the
    only possible values are 0 and 1."""
    return _level_offsets(TIL13, til13_pairs(), n, cap)


# -- balanced pairs: the fault line for every n --------------------------------

PAIR_LETTER_CAP = 10 ** 4


@dataclass(frozen=True)
class BalancedPair:
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


def _level(line: FaultLine, pairs: tuple[BalancedPair, ...], n: int,
           cap: int) -> tuple[BalancedPair, ...]:
    """The pairs of level n, after the refusals ``iterate`` would make
    for sigma^n(H), whose letters the pairs hold between them."""
    check_letter_cap(line.rule, "H", n, cap)
    return _nth(pair_levels(pairs), n)


def _level_offsets(line: FaultLine, pairs: tuple[BalancedPair, ...], n: int,
                   cap: int) -> dict[int, float]:
    return {k: v for p in _level(line, pairs, n, cap) for k, v in p.offsets.items()}


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
