"""Write digests.json: the held-out input pools and the reference sha256
of every CLI output the benchmark's ops can produce.

    PYTHONPATH=src python3 bench/record_digests.py

Run it from the root of a checkout of the reference commit; it takes a
few minutes.  A rational p/q (coprime, both <= 6) or a theta on the 0.01
grid of [0.60, 1.20] joins its pool when some generation's exact tile
count is within POOL_TOLERANCE of the canonical input's; its n is the
smallest such generation.  The canonical inputs keep their own n.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import COPRIME_PAIRS, DIGESTS, THETA_RANGE, output_digest

ROOT = Path(__file__).resolve().parent.parent
CANONICAL = {"pq": "1/2", "pq_n": 11, "theta": "1.0", "theta_n": 60}
POOL_TOLERANCE = 0.05
FIXED = (
    ("boundary", "--system", "til12", "--n", "16"),
    ("boundary", "--system", "til2", "--n", "11"),
    ("boundary", "--system", "til13", "--n", "18"),
    ("classify", "--pq", "1/3", "--theta-pi", "1/4"),
)


def output(argv, out: str | None = None) -> str:
    from tilelab.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return output_digest(buf.getvalue().encode("utf-8"),
                         None if out is None else Path(out))


def tiles(shape, n: int) -> int:
    from tilelab.substitution import census_counts
    return sum(census_counts(shape, n)[0].values())


def smallest_n(shape, target: int) -> int | None:
    from tilelab.substitution import census_steps
    for gen, counts, _ in census_steps(shape, 10 ** 4):
        total = sum(counts.values())
        if abs(total - target) <= POOL_TOLERANCE * target:
            return gen
        if total > target:
            return None
    return None


def main() -> int:
    from tilelab.geometry import shape_from_pq, shape_from_theta
    rat_target = tiles(shape_from_pq(1, 2), CANONICAL["pq_n"])
    irr_target = tiles(shape_from_theta(1.0), CANONICAL["theta_n"])
    pools = {"pq": {}, "theta": {}}
    for p, q in COPRIME_PAIRS:
        pq = f"{p}/{q}"
        n = CANONICAL["pq_n"] if pq == CANONICAL["pq"] else \
            smallest_n(shape_from_pq(p, q), rat_target)
        if n is not None:
            pools["pq"][pq] = n
    lo, hi = (round(100 * x) for x in THETA_RANGE)
    for k in range(lo, hi + 1):
        theta = f"{k / 100:.2f}"
        n = CANONICAL["theta_n"] if float(theta) == float(CANONICAL["theta"]) \
            else smallest_n(shape_from_theta(float(theta)), irr_target)
        if n is not None:
            pools["theta"][theta] = n

    work = ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    table = {"canonical": {"pq": CANONICAL["pq"], "theta": CANONICAL["theta"]},
             "pool_tolerance": POOL_TOLERANCE, "pq": {}, "theta": {}, "fixed": {}}
    for pq, n in pools["pq"].items():
        entry = {"n": n, "tiles": tiles(shape_from_pq(*map(int, pq.split("/"))), n),
                 "generate": output(("generate", "--pq", pq, "--n", str(n),
                                     "--out", "F"), out="F")}
        entry["stats"] = output(("stats", "--in", "F"))
        entry["render"] = output(("render", "--in", "F", "--faults", "--out", "G"),
                                 out="G")
        entry["spectral"] = output(("spectral", "--pq", pq))
        table["pq"][pq] = entry
        print("pq", pq, entry["n"], entry["tiles"], flush=True)
    for theta, n in pools["theta"].items():
        entry = {"n": n, "tiles": tiles(shape_from_theta(float(theta)), n),
                 "generate": output(("generate", "--theta", theta, "--n", str(n),
                                     "--out", "H"), out="H")}
        entry["stats"] = output(("stats", "--in", "H"))
        entry["spectral"] = output(("spectral", "--theta", theta))
        entry["classify"] = output(("classify", "--theta", theta,
                                    "--theta-pi", "irrational"))
        table["theta"][theta] = entry
        print("theta", theta, entry["n"], entry["tiles"], flush=True)
    for argv in FIXED:
        table["fixed"][" ".join(argv)] = output(argv)
    os.chdir(ROOT)
    shutil.rmtree(work.parent, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
