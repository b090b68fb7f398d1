"""Fixed pieces of work that measure the machine, not tilelab.

    python3 bench/calibrate.py {interpreted,mixed}

Nothing here imports the package.  The timed passes run one kind in a
fresh interpreter before every op child (see ``run.py``) and scale the
pass by how long it took, so that a host that runs slower for a while,
as a shared one does, moves the reported times less.  A shared host does
not slow all work alike, so there are parts like each kind of work the
workloads spend their time in:

- interpreted exact arithmetic, tuple-keyed dicts, float geometry and
  JSON text, like ``substitution``, ``stats`` and the CLI's encoding;
- C loops over large buffers: a substitution word of 0.9 M letters built
  with ``str.translate`` and one regular-expression scan over it, like
  ``boundary``;
- first writes to fresh memory, as every op that builds a large tiling
  or word makes.

``interpreted`` runs the first part and ``mixed`` all three.  Each
workload uses the kind whose time followed its own most closely on the
host this benchmark was defined on (``workloads.CALIBRATION``).  Prints
a checksum, so that the work cannot be skipped.
"""

from __future__ import annotations

import json
import math
import re
import sys
import zlib
from fractions import Fraction

WORD_TABLE = {ord("H"): "HhL", ord("h"): "Hl", ord("L"): "Hh", ord("l"): "H"}
WORD_GENERATIONS = 17
FRESH_BYTES = 128 * 2 ** 20
PAGE = 4096


def interpreted() -> int:
    counts: dict[tuple[int, int], int] = {}
    x = Fraction(1, 3)
    big = 3 ** 400
    for i in range(3000):
        x = (x * Fraction(2 * i + 1, i + 3) + Fraction(1, i + 2)).limit_denominator(10 ** 12)
        big = (big * (i + 7)) % (10 ** 300 + 7)
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + big % 1000
    tiles = []
    for i in range(6000):
        a = i * 0.618033988749895
        tiles.append({"id": i, "x": round(math.cos(a) * i, 9),
                      "y": round(math.sin(a) * i, 9), "k": [i % 7, i % 11]})
    text = json.dumps(tiles)
    back = json.loads(text)
    acc = sum(counts.values()) + x.numerator % 1000 + len(back)
    acc += sorted(f"{t['x']:.6f}" for t in back)[len(back) // 2].count("1")
    return zlib.crc32(text.encode()) ^ acc


def bulk() -> int:
    word = "H"
    for _ in range(WORD_GENERATIONS):
        word = word.translate(WORD_TABLE)
    found = re.search(r"LL|lL|H{7}", word)
    return len(word) + word.count("h") + (found is not None)


def fresh_memory() -> int:
    buf = bytearray(FRESH_BYTES)
    for i in range(0, FRESH_BYTES, PAGE):
        buf[i] = 1
    return sum(buf[::PAGE])


KINDS = {"interpreted": (interpreted,),
         "mixed": (interpreted, bulk, fresh_memory)}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in KINDS:
        print(f"usage: calibrate.py {{{','.join(KINDS)}}}", file=sys.stderr)
        return 2
    checksum = 0
    for part in KINDS[argv[0]]:
        checksum ^= part()
    print(checksum)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
