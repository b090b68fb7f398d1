"""Spans around the package's public functions, installed from outside.

Only the traced replay installs them: each listed function is replaced,
in every ``tilelab`` module namespace that binds it, by a wrapper that
records a span (name, op, start, end, parent) in memory.  Internal
callers that reach ``deflate`` or ``iterate`` through a module global
therefore get spans too, which makes self time (a span's duration minus
its child spans) well defined.  ``geometry`` has no spans: its per-tile
helpers run millions of times inside ``substitution`` and ``render``,
and a span per call would swamp the timing; its cost shows in its
callers' self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

TRACED = {
    "cli": ("main",),
    "substitution": ("build_Tn", "deflate", "census_steps",
                     "tiling_to_json", "tiling_from_json"),
    "stats": ("size_histogram", "orientation_histogram", "count_oracle",
              "size_comparison", "orientation_comparison"),
    "spectral": ("eigen", "irrational_spectrum"),
    "classify": ("classify",),
    "render": ("fault_runs", "render_svg"),
    "boundary": ("iterate", "forbidden_subwords_check", "f_of_n",
                 "slippage_til12", "til2_slippage_bound", "til2_offsets",
                 "til13_fluctuation", "til13_offsets"),
}

# The end-to-end metric each per-layer metric of BENCHMARK.json should
# move, and on which workload.  Times are self time unless marked.
MOVES = {
    "cli.import_s": "setup_s on all workloads; wall_s on census",
    "cli.main.self_s":
        "wall_s on tiling (argparse, JSON/CSV/SVG text encoding, file writes)",
    "cli.output_bytes": "wall_s on tiling",
    "cli.generate.s":
        "wall_s and peak_rss_mb on tiling (inclusive time of the generate ops)",
    "cli.render.s": "wall_s on tiling (inclusive time of the render --faults op)",
    "cli.errors": "ok_rate on every workload",
    "substitution.build_Tn.s":
        "wall_s and peak_rss_mb on tiling (inclusive of deflate)",
    "substitution.deflate.calls": "wall_s and peak_rss_mb on tiling",
    "substitution.tiles": "wall_s and peak_rss_mb on tiling",
    "substitution.us_per_tile":
        "wall_s and peak_rss_mb on tiling (build_Tn time per tile built)",
    "substitution.tiling_to_json.s": "wall_s on tiling (generate ops)",
    "substitution.tiling_from_json.s": "wall_s on tiling (stats, render)",
    "substitution.census_steps.s": "wall_s on census",
    "substitution.census_steps.generations": "wall_s on census",
    "substitution.errors": "ok_rate on every workload",
    "stats.size_histogram.s": "wall_s on tiling",
    "stats.orientation_histogram.s": "wall_s on tiling",
    "stats.count_oracle.s": "wall_s on census",
    "stats.count_oracle.calls": "wall_s on census",
    "stats.size_comparison.s": "wall_s and ok_rate on census",
    "stats.errors": "ok_rate on census",
    "spectral.eigen.s": "wall_s on census",
    "spectral.eigen.calls": "wall_s on census",
    "spectral.irrational_spectrum.s": "wall_s on census",
    "spectral.errors": "ok_rate on census",
    "classify.classify.s": "wall_s on census",
    "classify.errors": "ok_rate on census",
    "render.fault_runs.s": "wall_s on tiling (render --faults)",
    "render.fault_runs.runs": "wall_s on tiling (render --faults)",
    "render.render_svg.self_s": "wall_s on tiling (render --faults)",
    "render.svg_bytes": "wall_s on tiling (render --faults)",
    "render.errors": "ok_rate on tiling",
    "boundary.iterate.s": "wall_s and peak_rss_mb on fault-line",
    "boundary.iterate.letters": "wall_s and peak_rss_mb on fault-line",
    "boundary.forbidden_subwords_check.s": "wall_s on fault-line",
    "boundary.f_of_n.s": "wall_s on fault-line",
    "boundary.slippage_til12.self_s": "wall_s and peak_rss_mb on fault-line",
    "boundary.til2_slippage_bound.s": "wall_s and peak_rss_mb on fault-line",
    "boundary.til2_offsets.s": "wall_s and peak_rss_mb on fault-line",
    "boundary.til13_offsets.s": "wall_s and peak_rss_mb on fault-line",
    "boundary.offsets": "wall_s and peak_rss_mb on fault-line",
    "boundary.layout_reuse":
        "wall_s and peak_rss_mb on fault-line (distinct (rule, seed, n) words "
        "within an op over iterate calls; 0.5 on the til2 op)",
    "boundary.errors": "ok_rate on fault-line",
    "trace.replay_s": "wall_s of the workload (traced, in one process)",
    "trace.overhead_s": "none: traced minus untraced replay wall time",
}


def _observe_build(tr, args, kwargs, result):
    tr.counts["substitution.tiles"] += len(result.tiles)


def _observe_iterate(tr, args, kwargs, result):
    bound = inspect.signature(tr.originals["boundary.iterate"]).bind(*args, **kwargs)
    rule, seed, n = (bound.arguments[k] for k in ("rule", "seed", "n"))
    tr.counts["boundary.iterate.letters"] += len(result)
    tr.op_words.add((rule.name, getattr(seed, "letters", seed), n))


def _observe_offsets(tr, args, kwargs, result):
    tr.counts["boundary.offsets"] += len(result)


def _observe_slippage(tr, args, kwargs, result):
    tr.counts["boundary.offsets"] += len(result.distinct_offsets)


def _observe_runs(tr, args, kwargs, result):
    tr.counts["render.fault_runs.runs"] += len(result)


def _observe_svg(tr, args, kwargs, result):
    tr.counts["render.svg_bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "substitution.build_Tn": _observe_build,
    "boundary.iterate": _observe_iterate,
    "boundary.til2_offsets": _observe_offsets,
    "boundary.til13_offsets": _observe_offsets,
    "boundary.slippage_til12": _observe_slippage,
    "render.fault_runs": _observe_runs,
    "render.render_svg": _observe_svg,
}


class Tracer:
    """In-memory spans and counters for one traced replay."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, op, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: dict[str, object] = {}
        self.op = -1
        self.op_words: set = set()
        self._stack: list[int] = []
        self._raised: list[tuple[str, BaseException]] = []

    def begin_op(self, index: int) -> None:
        self.counts["boundary.distinct_words"] += len(self.op_words)
        self.op_words = set()
        self.op = index

    def finish(self) -> None:
        self.begin_op(-1)

    def install(self) -> None:
        """Replace every traced function wherever a tilelab module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "tilelab" or k.startswith("tilelab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"tilelab.{layer}"]
            for name in names:
                orig = getattr(home, name)
                span = f"{layer}.{name}"
                self.originals[span] = orig
                wrapped = self._wrap(span, orig)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        setattr(mod, attr, wrapped)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, exc: BaseException | None) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            layer = self.spans[idx][0].split(".")[0]
            if not any(l == layer and e is exc for l, e in self._raised):
                self._raised.append((layer, exc))
                self.counts[f"{layer}.errors"] += 1

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(idx, None)
                        return
                    except BaseException as exc:
                        self._close(idx, exc)
                        raise
                    self._close(idx, None)
                    self.counts[f"{name}.generations"] += 1
                    yield item
            return gen_wrapper

        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, op, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for (name, op, start, end, parent), below in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - below
        return out


def layer_metrics(spans: dict, counts: dict, extra: dict) -> dict:
    """The per-layer metric values: ``extra`` (measured by the replay),
    a few derived values, then ``<span>.s`` / ``<span>.self_s`` self time,
    then counters."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    build_s = spans.get("substitution.build_Tn", {}).get("s", 0.0)
    tiles = counts.get("substitution.tiles", 0)
    iterate_calls = calls("boundary.iterate")
    values = {
        "substitution.build_Tn.s": build_s,
        "substitution.deflate.calls": calls("substitution.deflate"),
        "substitution.us_per_tile": 1e6 * build_s / tiles if tiles else 0.0,
        "stats.count_oracle.calls": calls("stats.count_oracle"),
        "spectral.eigen.calls": calls("spectral.eigen"),
        "boundary.layout_reuse":
            counts.get("boundary.distinct_words", 0) / iterate_calls
            if iterate_calls else 0.0,
        **extra,
    }
    with open(BENCHMARK) as fh:
        per_layer = json.load(fh)["per_layer"]
    if {m["name"] for m in per_layer} != MOVES.keys():
        raise ValueError("MOVES and BENCHMARK.json per_layer name different metrics")
    out = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        if name in values:
            value = values[name]
        elif name.endswith((".s", ".self_s")):
            value = spans.get(name.rsplit(".", 1)[0], {}).get("self_s", 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
