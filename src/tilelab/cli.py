"""Command-line interface: reproducible experiments over all modules.

Every command writes deterministic output (12 significant digits,
sorted JSON keys), so identical invocations are byte-identical.  Exit
codes: 0 success, 2 usage or domain problems, 3 a size cap would be
exceeded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import boundary, render, stats
from .classify import check_theta_pi, classify
from .errors import (ArgumentError, DomainError, GeometryError,
                     NumericError, ResourceError, TilelabError)
from .geometry import TriangleShape, shape_from_pq, shape_from_theta
from .spectral import eigen, irrational_spectrum
from .substitution import DEFAULT_TILE_CAP, build_Tn, round12, tiling_json_chunks

ENV_MAX_TILES = "TILELAB_MAX_TILES"


def _emit_json(data, out_path: str | None) -> None:
    _emit_text(json.dumps(round12(data), sort_keys=True, indent=1) + "\n",
               out_path)


def _emit_text(text: str, out_path: str | None) -> None:
    _emit_chunks([text], out_path)


def _emit_chunks(chunks, out_path: str | None) -> None:
    # the first chunk comes before any output: a writer that fails before
    # it leaves no partial text and no file behind
    chunks = iter(chunks)
    first = next(chunks, "")
    if out_path is None:
        sys.stdout.write(first)
        for chunk in chunks:
            sys.stdout.write(chunk)
    else:
        try:
            fh = open(out_path, "w")
        except OSError as exc:      # a directory, unwritable, no such folder
            raise ArgumentError(str(exc)) from None
        with fh:
            fh.write(first)
            fh.writelines(chunks)


def _read_tiling(path: str, cap: int):
    from .reader import read_tiling     # loaded by the commands that read one
    try:
        with open(path) as fh:
            return read_tiling(fh, cap)
    except TilelabError:        # refused by the tiling checks or the tile cap
        raise
    except OSError as exc:      # missing, a directory, unreadable
        raise ArgumentError(str(exc)) from None
    except (ValueError, RecursionError) as exc:     # not JSON, nested too deep
        raise ArgumentError(f"{path}: not a tiling JSON file ({exc})") from None


def _shape_from_args(args) -> TriangleShape:
    if args.pq is not None:     # "" too: a malformed P/Q, not a missing one
        try:
            p_str, q_str = args.pq.split("/")
            p, q = int(p_str), int(q_str)
        except ValueError:
            raise ArgumentError(f"--pq wants P/Q with integers, got {args.pq!r}")
        return shape_from_pq(p, q)
    return shape_from_theta(args.theta)


def _tile_cap(args) -> int:
    env = os.environ.get(ENV_MAX_TILES)
    if env is None:
        return DEFAULT_TILE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ArgumentError(f"{ENV_MAX_TILES} must be a positive integer, got {env!r}")
    return cap


def _add_shape_args(sub, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--pq", help="rational size-ratio P/Q, e.g. 1/2")
    group.add_argument("--theta", type=float,
                       help="small angle of the prototile in radians")


def _cmd_generate(args) -> int:
    shape = _shape_from_args(args)
    tiling = build_Tn(shape, args.n, cap=_tile_cap(args))
    _emit_chunks(tiling_json_chunks(tiling), args.out)
    return 0


def _cmd_classify(args) -> int:
    shape = _shape_from_args(args)
    theta_pi = None
    if args.theta_pi == "irrational":
        theta_pi = False
    elif args.theta_pi:
        try:
            u, v = args.theta_pi.split("/")
            frac = Fraction(int(u), int(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise ArgumentError("--theta-pi wants U/V or 'irrational', "
                                f"got {args.theta_pi!r}") from exc
        # the declaration must actually describe this shape
        check_theta_pi(shape, frac)
        theta_pi = True
    report = classify(shape, theta_pi_rational=theta_pi)
    _emit_json(report.to_json(), args.out)
    return 0


def _cmd_spectral(args) -> int:
    shape = _shape_from_args(args)
    if shape.rationality is not None:
        report = eigen(shape)
        _emit_json(report.to_json(), args.out)
    else:
        report = irrational_spectrum(shape)
        _emit_json(report.to_json(), args.out)
    return 0


_BOUNDARY_SYSTEMS = {"til12": boundary.TIL12, "til2": boundary.TIL2,
                     "til13": boundary.TIL13}


def _boundary_rows(line: boundary.FaultLine, n_max: int):
    if line is boundary.TIL12:
        yield "n,f,g_at_Q,offsets"
        for n in range(1, n_max + 1):
            prof = boundary.slippage_til12(n)
            yield f"{n},{prof.f},{prof.g_at_Q},{len(prof.distinct_offsets)}"
        return
    if line is boundary.TIL2:
        yield "n,max_abs_f,offsets"
        value, offsets = boundary.til2_slippage_bound, boundary.til2_offsets
    else:
        yield "n,fluctuation,offsets"
        value, offsets = boundary.til13_fluctuation, boundary.til13_offsets
    for n in range(1, n_max + 1):
        yield f"{n},{value(n)},{len(offsets(n))}"


def _cmd_boundary(args) -> int:
    line = _BOUNDARY_SYSTEMS[args.system]
    # refuse past the letter cap before row 1, not at row n
    boundary.check_letter_cap(line.rule, "H", args.n)
    _emit_text("\n".join(_boundary_rows(line, args.n)) + "\n", args.out)
    return 0


def _cmd_stats(args) -> int:
    tiling = _read_tiling(args.infile, _tile_cap(args))
    hist = stats.size_histogram(tiling, args.weighting)
    comp = stats.histogram_comparison(tiling.shape, hist, args.tolerance)
    if args.csv:
        _emit_text(comp.to_csv(), args.out)
        return 0
    summary = {"size": comp.to_json(), "generation": tiling.generation,
               "tiles": len(tiling)}
    ori = stats.orientation_histogram(tiling)
    summary["orientation"] = {"bins": ori.bins,
                              "max_deviation": ori.max_deviation()}
    _emit_json(summary, args.out)
    return 0


def _cmd_render(args) -> int:
    tiling = _read_tiling(args.infile, _tile_cap(args))
    _emit_chunks(render.svg_chunks(tiling, color=args.color, faults=args.faults),
                 args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilelab",
        description="generalized pinwheel substitution tilings: generation, "
                    "classification, spectra, fault-line analysis, rendering")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build T_n and write tiling JSON")
    _add_shape_args(g)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("classify", help="size/orientation finiteness report")
    _add_shape_args(c)
    c.add_argument("--theta-pi", default=None, dest="theta_pi",
                   help="declare theta = (U/V)*pi exactly (e.g. 1/4), "
                        "or 'irrational' to assert the opposite")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_classify)

    s = sub.add_parser("spectral", help="population spectrum report")
    _add_shape_args(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_spectral)

    b = sub.add_parser("boundary", help="fault-line substitution profiles (CSV)")
    b.add_argument("--system", required=True, choices=tuple(_BOUNDARY_SYSTEMS))
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_boundary)

    st = sub.add_parser("stats", help="empirical vs analytic distribution tables")
    st.add_argument("--in", dest="infile", required=True)
    st.add_argument("--weighting", choices=("count", "area"), default="area")
    st.add_argument("--tolerance", type=float, default=0.02)
    st.add_argument("--csv", action="store_true",
                    help="emit the per-bin CSV table instead of the JSON summary")
    st.add_argument("--out", default=None)
    st.set_defaults(func=_cmd_stats)

    r = sub.add_parser("render", help="render tiling JSON to SVG")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--color", choices=("size", "phi"), default="size")
    r.add_argument("--faults", action="store_true")
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ResourceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (NumericError, GeometryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (ArgumentError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TilelabError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
