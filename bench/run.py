#!/usr/bin/env python3
"""The tilelab benchmark.

    python3 bench/run.py --workload {tiling,fault-line,census} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` and nothing is installed.  Each workload is a closed loop of one
client: its ops run back to back, each CLI op in a fresh interpreter and
each workload's library ops in one more, and the next op starts only
when the previous child has exited.  Passes over the op list repeat
while the next one is expected to end within S seconds of the start of
the first (at least one pass).

With ``--trace 0`` it reports the end-to-end metrics, medians over the
passes: ``wall_s`` (one pass), ``peak_rss_mb`` (largest per-child peak
RSS of a pass in MiB, from ``os.wait4`` of that child), ``setup_s`` (a
fresh ``import tilelab.cli``, median of the imports made at the start of
every pass) and ``ok_rate`` (ops that passed their output check over ops
attempted, i.e. one minus the error rate).  The two times are given at
the speed of the reference machine: a fresh interpreter runs the fixed
work of ``calibrate.py`` (the workload's kind of it) before every op
child, and each pass's times are scaled by that kind's
``CALIBRATION_REF_S`` over the mean of the pass's calibration times.  On a shared host the
speed of the machine swings by tens of per cent from one minute, or even
one second, to the next; the scaling takes most of that out and leaves
the program's own speed, since the calibration runs no tilelab code.
The lines above the result give the raw times as well.

With ``--trace 1`` it replays the ops in one process twice, untraced and
traced, and reports the per-layer metrics named in ``BENCHMARK.json``
(see ``spans.py``); a CLI op whose output differs between the two
replays fails.

Every op's output is checked: CLI outputs against the sha256 digests in
``digests.json``, library ops against exact invariants.  A failed op is
counted, never fatal.  ``correct`` is false when any op fails other than
the known defect named in ``workloads.KNOWN_DEFECT``.  The last line of
stdout is the JSON result; the lines before it are a per-op table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_metrics
from workloads import CALIBRATION, KNOWN_DEFECT, WORKLOADS, check, ops_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HARD_LIMIT_S = 165.0       # every run exits well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CLI = "import sys; from tilelab.cli import main; sys.exit(main(sys.argv[1:]))"
# calibrate.py's wall time per kind, child start to exit, on the machine the
# benchmark was defined on (2 vCPUs of a Xeon at 2.0 GHz, Python 3.11.7) when
# the host ran at its fastest; wall_s and setup_s are given at that speed
CALIBRATION_REF_S = {"interpreted": 0.22, "mixed": 0.47}
SETUP_PER_PASS = 2


class Runner:
    """Starts children one at a time and reaps each with ``os.wait4``."""

    def __init__(self, workdir: Path, calibration: str) -> None:
        self.workdir = workdir
        self.calibration = calibration
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{var: "1" for var in THREAD_VARS})

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def last_error(self) -> str:
        lines = (self.workdir / "stderr.txt").read_text(errors="replace").splitlines()
        return lines[-1] if lines else ""

    def child(self, argv: list[str], stdout: str) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MiB) of one child."""
        with open(self.workdir / stdout, "wb") as out, \
                open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def _lib_records(path: Path) -> dict:
    done = {}
    with open(path) as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:      # a child killed mid-line
                break
            done[rec["name"]] = rec
    return done


def run_pass(runner: Runner, ops) -> dict:
    """One pass over the ops: wall time, peak child RSS, per-op records,
    set-up samples and the pass's speed scale.  The pass starts with
    SETUP_PER_PASS fresh imports, and a calibration child runs before
    each op child; those children and the output checks after the pass
    are outside its wall time."""
    for name in os.listdir(runner.workdir):
        (runner.workdir / name).unlink()
    calibration, setup = [], []
    for _ in range(SETUP_PER_PASS):
        setup.append(import_seconds(runner))
    records, rss = [], []
    wall = 0.0
    i = 0
    while i < len(ops):
        calibration.append(calibrate(runner))
        t0 = time.perf_counter()
        if ops[i].lib:
            j = i
            while j < len(ops) and ops[j].lib:
                j += 1
            rc, seconds, peak = runner.child(
                [str(HERE / "libops.py"), *(o.name for o in ops[i:j])], "lib.jsonl")
            done = _lib_records(runner.workdir / "lib.jsonl")
            for op in ops[i:j]:
                records.append({**done.get(op.name, {
                    "name": op.name, "ok": False, "seconds": seconds,
                    "error": f"library child exit {rc}: {runner.last_error()}"}),
                    "rss": peak})
        else:
            j = i + 1
            rc, seconds, peak = runner.child(["-c", CLI, *ops[i].argv], f"out{i}.txt")
            records.append({"name": ops[i].name, "ok": rc == 0, "seconds": seconds,
                            "rss": peak, "error": None if rc == 0 else
                            f"exit {rc}: {runner.last_error()}"})
        rss.append(peak)
        wall += time.perf_counter() - t0
        i = j
    for k, (op, rec) in enumerate(zip(ops, records)):
        if not op.lib and rec["ok"]:
            stdout = (runner.workdir / f"out{k}.txt").read_bytes()
            _, error = check(op, runner.workdir, stdout)
            rec.update(ok=error is None, error=error)
    scale = CALIBRATION_REF_S[runner.calibration] / statistics.mean(calibration)
    return {"wall": wall, "rss": max(rss), "ops": records, "setup": setup,
            "scale": scale}


def import_seconds(runner: Runner) -> float:
    rc, seconds, _ = runner.child(["-c", "import tilelab.cli"], "setup.txt")
    if rc != 0:
        raise SystemExit(f"error: import tilelab.cli exited {rc}")
    return seconds


def calibrate(runner: Runner) -> float:
    rc, seconds, _ = runner.child([str(HERE / "calibrate.py"), runner.calibration],
                                  "calibrate.txt")
    if rc != 0:
        raise SystemExit(f"error: calibrate.py exited {rc}")
    return seconds


def is_known_defect(rec: dict) -> bool:
    name, error_type = KNOWN_DEFECT
    return rec["name"] == name and (rec.get("error") or "").startswith(error_type + ":")


def verdict(records: list[dict]) -> dict:
    failed = [r for r in records if not r["ok"]]
    for rec in failed:
        if not is_known_defect(rec):
            print(f"FAILED {rec['name']}: {rec.get('error')}", file=sys.stderr)
    return {"correct": all(is_known_defect(r) for r in failed),
            "attempted": len(records), "failed": len(failed)}


def timed_run(runner: Runner, ops, seconds: float) -> dict:
    """Passes until the next one would end after ``seconds`` (at least
    one), after a warm-up import and calibration that compile and cache
    what later children read."""
    import_seconds(runner)
    calibrate(runner)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(runner, ops))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds or took > runner.remaining():
            break
    records = [r for p in passes for r in p["ops"]]
    for k, op in enumerate(ops):
        mine = [p["ops"][k] for p in passes]
        print(f"op {statistics.median(r['seconds'] for r in mine):8.3f} s "
              f"{statistics.median(r['rss'] for r in mine):8.1f} MiB "
              f"{sum(r['ok'] for r in mine)}/{len(mine)} ok  {op.name}")
    result = verdict(records)
    ok = result["attempted"] - result["failed"]
    metrics = {
        "wall_s": (statistics.median(p["wall"] * p["scale"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MiB"),
        "setup_s": (statistics.median(s * p["scale"] for p in passes
                                      for s in p["setup"]), "s"),
        "ok_rate": (ok / result["attempted"], "share"),
    }
    print("pass " + "; ".join(
        f"wall {p['wall']:.3f} s setup {' '.join(f'{s:.3f}' for s in p['setup'])} s "
        f"scale {p['scale']:.3f}" for p in passes))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def replay(runner: Runner, workload: str, seed: int, traced: bool) -> dict:
    result = runner.workdir / f"replay-{int(traced)}.json"
    rc, _, _ = runner.child([str(HERE / "replay.py"), workload, str(seed),
                             str(int(traced)), str(runner.workdir), str(result)],
                            "replay.txt")
    if rc != 0 or not result.is_file():
        print(f"replay exit {rc}: {runner.last_error()}", file=sys.stderr)
        return {}
    with open(result) as fh:
        return json.load(fh)


def traced_run(runner: Runner, workload: str, seed: int, ops) -> dict:
    plain = replay(runner, workload, seed, traced=False)
    traced = replay(runner, workload, seed, traced=True)
    records = []
    for k, op in enumerate(ops):
        try:
            rec, ref = traced["ops"][k], plain["ops"][k]
        except (KeyError, IndexError):
            records.append({"name": op.name, "ok": False, "error": "replay failed"})
            continue
        if rec.get("digest") != ref.get("digest"):
            rec = {**rec, "ok": False, "error": "traced output differs from untraced"}
        records.append(rec)
        print(f"op {rec['seconds']:8.3f} s traced  {'ok' if rec['ok'] else 'FAIL'}  "
              f"{op.name}")
    result = verdict(records)

    def op_seconds(command: str) -> float:
        return sum(r.get("seconds", 0.0) for r, op in zip(records, ops)
                   if op.command == command)

    extra = {
        "cli.import_s": traced.get("import_s", 0.0),
        "cli.output_bytes": traced.get("output_bytes", 0),
        "cli.generate.s": op_seconds("generate"),
        "cli.render.s": op_seconds("render"),
        "trace.replay_s": traced.get("replay_s", 0.0),
        "trace.overhead_s": traced.get("replay_s", 0.0) - plain.get("replay_s", 0.0),
    }
    result["metrics"] = layer_metrics(traced.get("spans", {}),
                                      traced.get("counts", {}), extra)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tilelab" / "cli.py").is_file():
        print(f"error: no tilelab sources under {SRC}; run from the root of "
              "a tilelab checkout", file=sys.stderr)
        return 2
    ops = ops_for(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, CALIBRATION[args.workload])
        if args.trace:
            result = traced_run(runner, args.workload, args.seed, ops)
        else:
            result = timed_run(runner, ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
