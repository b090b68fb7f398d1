"""Library operations of the benchmark and their exact invariants.

Each op calls the package's public functions and returns whether the
result satisfies an invariant that holds exactly for correct code.  Run
as a script, it executes the named ops in order in this one interpreter
and prints one JSON line per op; an op that raises is reported with its
exception type and the remaining ops still run.
"""

from __future__ import annotations

import json
import math
import sys
import time

# f(n) for n = 1..7, as criterion 05 of the acceptance tests checks it
F_OF_N_HEAD = [1, -1, 1, -3, 3, -5, 9]
CENSUS_TILES = 10 ** 15
MASS_TOL = 1e-9


def _shape(name: str):
    from tilelab.geometry import shape_from_pq, shape_from_theta
    if name == "irr1":
        return shape_from_theta(1.0)
    p, q = {"til12": (1, 2), "til2": (2, 1), "til13": (1, 3),
            "pinwheel": (1, 1)}[name]
    return shape_from_pq(p, q)


def forbidden_sweep() -> bool:
    from tilelab.boundary import forbidden_subwords_check, iterate, sigma_til12
    return all([forbidden_subwords_check(iterate(sigma_til12(), "H", n))
                for n in range(1, 19)])


def f_of_n_sweep() -> bool:
    from tilelab.boundary import f_of_n
    fs = [f_of_n(n) for n in range(1, 32)]
    growth = all(abs(b) >= abs(a) + 2 for a, b in zip(fs, fs[1:]) if abs(a) > 6)
    floor = all(abs(f) >= n + 2 for n, f in enumerate(fs, start=1) if 7 <= n <= 30)
    return fs[:7] == F_OF_N_HEAD and growth and floor


def oracle_sweep(name: str) -> bool:
    """Lattice-path oracle equals the census for every class of every
    generation until the tiling has CENSUS_TILES tiles."""
    from tilelab.stats import count_oracle
    from tilelab.substitution import census_steps
    shape = _shape(name)
    for _, counts, min_pair in census_steps(shape, 10 ** 6):
        cut = shape.size_key(*min_pair)
        for ij, want in counts.items():
            if count_oracle(shape, cut, ij) != want:
                return False
        if sum(counts.values()) >= CENSUS_TILES:
            return True
    return False


def _unit_mass(masses) -> bool:
    return all(math.isfinite(m) and m >= 0.0 for m in masses) and \
        abs(math.fsum(masses) - 1.0) <= MASS_TOL


def size_comparison(name: str, n: int) -> bool:
    from tilelab.stats import size_comparison as compare
    rep = compare(_shape(name), n, "area")
    return len(rep.analytic) == len(rep.labels) and _unit_mass(rep.empirical)


def orientation_comparison(name: str, n: int) -> bool:
    from tilelab.stats import orientation_comparison as compare
    rep = compare(_shape(name), n)
    return _unit_mass(rep.empirical)


def eigen_sweep() -> bool:
    from tilelab.geometry import shape_from_pq
    from tilelab.spectral import eigen
    ok = True
    for p in range(1, 21):
        for q in range(1, 21):
            if math.gcd(p, q) == 1:
                rep = eigen(shape_from_pq(p, q))
                ok &= _unit_mass(rep.nu) and _unit_mass(rep.rho)
    return ok


LIB_OPS = {
    "forbidden_subwords_check(til12, n=1..18)": forbidden_sweep,
    "f_of_n(1..31)": f_of_n_sweep,
    **{f"oracle_sweep({s})": (lambda s=s: oracle_sweep(s))
       for s in ("til12", "til2", "til13", "pinwheel", "irr1")},
    "size_comparison(irr1, 800)": lambda: size_comparison("irr1", 800),
    "size_comparison(til12, 800)": lambda: size_comparison("til12", 800),
    "orientation_comparison(til12, 40)": lambda: orientation_comparison("til12", 40),
    "eigen(p, q <= 20)": eigen_sweep,
}


def run_op(name: str) -> dict:
    """Run one library op; never raises."""
    t0 = time.perf_counter()
    try:
        ok = bool(LIB_OPS[name]())
        error = None if ok else "invariant violated"
    except Exception as exc:  # the op fails; the workload goes on
        ok, error = False, f"{type(exc).__name__}: {exc}"
    return {"name": name, "ok": ok, "error": error,
            "seconds": time.perf_counter() - t0}


def main(names: list[str]) -> int:
    for name in names:
        print(json.dumps(run_op(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
