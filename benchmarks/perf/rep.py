"""One timed repeat of one workload, in a fresh interpreter.

A real evaluation pays interpreter start-up, imports, reference
compilation and cold parse caches on every invocation; an in-process
loop would hide them after the first pass.  So the harness launches
``python -m benchmarks.perf.rep`` once per repeat.  ``setup_s`` runs from
the launch (``--launched``, a ``time.monotonic()`` reading taken by the
harness just before it started this process) to the timed call.

The result — timings, CPU, peak memory, per-record hashes and, for a
traced repeat, the per-layer metrics and a Chrome trace — is written as
JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Sequence

from benchmarks.perf import resources
from benchmarks.perf.digest import hash_records
from benchmarks.perf.trace import Tracer
from benchmarks.perf.workloads import WORKLOADS, Inputs


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.rep")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prep", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        # Only a traced repeat loads every layer (the fleet included), so
        # untraced set-up pays exactly the imports its workload needs.
        from benchmarks.perf import layers

        layers.install(tracer)
    workload_type = WORKLOADS[args.workload]
    inputs = Inputs.load(workload_type.input_set, args.seed, args.tiny, args.prep)
    workload = workload_type(inputs, args.prep, args.run_dir, args.tiny)
    workload.setup()

    cpu_before = resources.cpu_seconds()
    setup_s = time.monotonic() - args.launched
    tracer.enabled = args.trace
    start = time.perf_counter()
    records = workload.timed()
    wall_s = time.perf_counter() - start
    tracer.enabled = False
    cpu_s = resources.cpu_seconds() - cpu_before

    extra = workload.teardown()
    count = sum(len(rows) for rows in records.values())
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "records": count,
        "errors": sum(1 for rows in records.values() for record in rows if record.error),
        "peak_rss_mb": resources.peak_rss_mb(),
        "hashes": hash_records(records),
    }
    if args.trace:
        result["layers"] = layers.layer_metrics(tracer, wall_s, count, extra)
        (args.run_dir / "trace.json").write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    (args.run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
