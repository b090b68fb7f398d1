"""Replay one workload's ops in this one interpreter, traced or not.

    python3 bench/replay.py WORKLOAD SEED TRACE WORKDIR RESULT

CLI ops go through ``tilelab.cli.main(argv)`` with stdout captured;
library ops call ``libops``.  With TRACE 1 the spans of ``spans.py`` are
installed first.  The result (per-op outcome and output digest, import
time, replay time, span summary and counters) is written to RESULT once,
at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import libops
from workloads import check, ops_for


def main(workload: str, seed: int, traced: bool, workdir: str, result: str) -> int:
    ops = ops_for(workload, seed)
    t0 = time.perf_counter()
    import tilelab.cli  # noqa: F401  (timed: the import users pay per command)
    import_s = time.perf_counter() - t0
    cli = sys.modules["tilelab.cli"]
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    os.chdir(workdir)
    records = []
    output_bytes = 0
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        if op.lib:
            records.append(libops.run_op(op.name))
            continue
        t = time.perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(op.argv))
            except Exception:   # a traceback: the interpreter would exit 1
                rc = 1
        stdout = buf.getvalue().encode("utf-8")
        output_bytes += len(stdout)
        if rc == 0:
            digest, error = check(op, Path(workdir), stdout)
            if op.out is not None and digest is not None:
                output_bytes += os.path.getsize(op.out)
        else:
            digest, error = None, f"exit {rc}"
        records.append({"name": op.name, "ok": error is None, "error": error,
                        "digest": digest, "seconds": time.perf_counter() - t})
    replay_s = time.perf_counter() - start
    out = {"import_s": import_s, "replay_s": replay_s, "ops": records,
           "output_bytes": output_bytes}
    if tracer is not None:
        tracer.finish()
        out["spans"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
    with open(result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    workload, seed, traced, workdir, result = sys.argv[1:6]
    sys.exit(main(workload, int(seed), traced == "1", workdir, result))
