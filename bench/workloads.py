"""The three benchmark workloads as seeded lists of operations.

An operation is either one CLI command (run as its own interpreter in
the timed passes) or one library call group (run, with the other library
ops of its workload, in one interpreter).  Every CLI op carries the
sha256 its output must have; library ops check exact invariants instead
(see ``libops.py``).

Seed 0 is the canonical input list.  Other seeds draw a held-out
rational p/q and irrational theta from the pools in ``digests.json``,
which ``record_digests.py`` builds: every coprime p, q <= 6 and every
theta on a 0.01 grid in [0.60, 1.20] whose smallest generation n with a
tile count within the pool tolerance of the canonical one exists.  A
draw that is not in a pool is drawn again.  ``fault-line`` and the
library child of ``census`` use the paper's fixed systems and shapes and
ignore the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

WORKLOADS = ("tiling", "fault-line", "census")

# The kind of calibrate.py work each workload's times are scaled by.  Over
# ten-run sets, scaling census by the mixed kind left its wall_s spread at
# 0.14 and by the interpreted kind at 0.09; fault-line, whose ops spend
# their time in C over words of millions of letters, was steadiest with
# the mixed kind; tiling was as steady with either.
CALIBRATION = {"tiling": "interpreted", "fault-line": "mixed",
               "census": "interpreted"}

# The one op whose failure is a known defect of the seed program:
# census_size_histogram converts an exact count past 2**1024 to float.
KNOWN_DEFECT = ("size_comparison(til12, 800)", "OverflowError")

COPRIME_PAIRS = tuple((p, q) for p in range(1, 7) for q in range(1, 7)
                      if math.gcd(p, q) == 1)
THETA_RANGE = (0.6, 1.2)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...] = ()     # CLI ops; F, G, H name files in the work dir
    out: str | None = None         # the --out file digested instead of stdout
    digest: str | None = None      # expected sha256 of the CLI output
    lib: bool = False              # library op, run by libops.py under ``name``

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "lib"


def load_table() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def theta_key(theta: str) -> str:
    return f"{float(theta):.2f}"


def draw(seed: int, table: dict) -> tuple[str, str]:
    """The (p/q, theta) argument strings for ``seed``."""
    if seed == 0:
        return table["canonical"]["pq"], table["canonical"]["theta"]
    rng = random.Random(seed)
    while True:
        p, q = rng.choice(COPRIME_PAIRS)
        pq = f"{p}/{q}"
        if pq in table["pq"]:
            break
    while True:
        theta = f"{rng.uniform(*THETA_RANGE):.2f}"
        if theta in table["theta"]:
            break
    return pq, theta


def _cli(table_entry: dict, key: str, *argv: str, out: str | None = None) -> Op:
    return Op(name=" ".join(argv), argv=argv, out=out, digest=table_entry[key])


def output_digest(stdout: bytes, out: Path | None) -> str:
    """The sha256 of a CLI op's output: its ``--out`` file, else its stdout."""
    data = stdout if out is None else out.read_bytes()
    return hashlib.sha256(data).hexdigest()


def check(op: Op, workdir: Path, stdout: bytes) -> tuple[str | None, str | None]:
    """(digest, error) of a CLI op that exited 0; error is None when the
    output has the recorded digest."""
    out = None if op.out is None else workdir / op.out
    if out is not None and not out.is_file():
        return None, f"no output file {op.out}"
    digest = output_digest(stdout, out)
    return digest, None if digest == op.digest else "output digest mismatch"


def ops_for(workload: str, seed: int) -> list[Op]:
    table = load_table()
    pq, theta = draw(seed, table)
    rat = table["pq"][pq]
    irr = table["theta"][theta_key(theta)]
    fixed = table["fixed"]
    if workload == "tiling":
        return [
            _cli(rat, "generate", "generate", "--pq", pq, "--n", str(rat["n"]),
                 "--out", "F", out="F"),
            _cli(rat, "stats", "stats", "--in", "F"),
            _cli(rat, "render", "render", "--in", "F", "--faults", "--out", "G",
                 out="G"),
            _cli(irr, "generate", "generate", "--theta", theta, "--n", str(irr["n"]),
                 "--out", "H", out="H"),
            _cli(irr, "stats", "stats", "--in", "H"),
        ]
    if workload == "fault-line":
        return [
            _cli(fixed, "boundary --system til12 --n 16",
                 "boundary", "--system", "til12", "--n", "16"),
            _cli(fixed, "boundary --system til2 --n 11",
                 "boundary", "--system", "til2", "--n", "11"),
            _cli(fixed, "boundary --system til13 --n 18",
                 "boundary", "--system", "til13", "--n", "18"),
            Op(name="forbidden_subwords_check(til12, n=1..18)", lib=True),
            Op(name="f_of_n(1..31)", lib=True),
        ]
    if workload == "census":
        lib = [f"oracle_sweep({s})" for s in ("til12", "til2", "til13",
                                              "pinwheel", "irr1")]
        lib += ["size_comparison(irr1, 800)", "size_comparison(til12, 800)",
                "orientation_comparison(til12, 40)", "eigen(p, q <= 20)"]
        return [Op(name=name, lib=True) for name in lib] + [
            _cli(rat, "spectral", "spectral", "--pq", pq),
            _cli(irr, "spectral", "spectral", "--theta", theta),
            _cli(fixed, "classify --pq 1/3 --theta-pi 1/4",
                 "classify", "--pq", "1/3", "--theta-pi", "1/4"),
            _cli(irr, "classify", "classify", "--theta", theta,
                 "--theta-pi", "irrational"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
