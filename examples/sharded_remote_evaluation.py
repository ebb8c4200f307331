"""Overlapped sharded evaluation of a rate-limited "remote" endpoint.

The evaluation loop is wall-clock-bound twice over: a remote model
charges network latency per request, and scoring plus unit tests burn
CPU.  This example evaluates the same model three ways —

1. the plain serial pipeline (every latency paid in full, stages in
   lockstep),
2. the async executor alone (latencies overlap, scoring still barriers),
3. the sharded scheduler pairing async generation with process-pool
   scoring (generation of shard k+1 overlaps scoring of shard k),

then verifies all three produce bit-identical records.  The speedup is
real wall-clock; the scores cannot move.

Run with::

    python examples/sharded_remote_evaluation.py
"""

from __future__ import annotations

import time

from repro import build_dataset
from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.dataset.schema import Variant
from repro.llm.remote import RemoteEndpointModel
from repro.pipeline import (
    AsyncExecutor,
    EvaluationPipeline,
    ModelJob,
    MultiModelScheduler,
    ProcessExecutor,
)
from repro.scoring.compiled import ReferenceStore

MODEL_NAME = "gpt-3.5"
PROBLEM_BUDGET = 120
LATENCY = 0.015  # 15ms per request, deterministic


def remote(inner):
    return RemoteEndpointModel(inner, latency_seconds=LATENCY, jitter_seconds=0.004, seed=5)


def main() -> None:
    dataset = build_dataset()
    problems = list(dataset.by_variant(Variant.ORIGINAL))[:PROBLEM_BUDGET]
    benchmark = CloudEvalBenchmark(dataset, BenchmarkConfig())
    inner, requests = benchmark.requests(MODEL_NAME, problems=problems)
    print(
        f"Evaluating {MODEL_NAME!r} on {len(requests)} problems behind a "
        f"{LATENCY * 1000:.0f}ms endpoint.\n"
    )

    start = time.perf_counter()
    serial = EvaluationPipeline(remote(inner), store=ReferenceStore()).run(requests)
    serial_s = time.perf_counter() - start
    print(f"serial pipeline                    : {serial_s:5.2f} s")

    start = time.perf_counter()
    with EvaluationPipeline(
        remote(inner), generate_executor="async", max_workers=16, store=ReferenceStore()
    ) as pipeline:
        async_only = pipeline.run(requests)
    async_s = time.perf_counter() - start
    print(f"async generation (16 in flight)    : {async_s:5.2f} s  ({serial_s / async_s:.1f}x)")

    start = time.perf_counter()
    # An executor passed as an instance stays caller-owned; the `with`
    # blocks shut both pools down deterministically.
    # A sharded single-model run is one job on the scheduler that also
    # runs whole leaderboards.
    model = remote(inner)
    with ProcessExecutor(max_workers=2) as score_executor, MultiModelScheduler(
        [ModelJob(model, requests)],
        shards=4,
        executor=score_executor,
        generate_executor=AsyncExecutor(max_concurrency=16),
        store=ReferenceStore(),
    ) as scheduler:
        overlapped = scheduler.run()[model.name]
    sharded_s = time.perf_counter() - start
    print(f"sharded async + process scoring    : {sharded_s:5.2f} s  ({serial_s / sharded_s:.1f}x)")

    assert async_only.records == serial.records, "async path changed a record"
    assert overlapped.records == serial.records, "sharded path changed a record"
    print("\nAll three runs are bit-identical.")
    scores = overlapped.mean_scores()
    print(f"unit-test mean {scores['unit_test']:.3f}, passes {overlapped.pass_count()}/{len(problems)}")


if __name__ == "__main__":
    main()
