"""Interleaved multi-model leaderboard vs sequential per-model runs.

A leaderboard run evaluates several models over the same corpus.  Run
sequentially — one sharded run per model — every model pays its own
pipeline fill/drain bubble (a generation-only head and a scoring-only
tail) and its own executor spin-up, and while one model's tail is being
scored the endpoint sits idle.  The
:class:`~repro.pipeline.scheduler.MultiModelScheduler` interleaves all
models' shards through one shared async generation executor and one
shared process scoring pool, so the whole leaderboard pays a single
bubble and keeps both resources busy across model boundaries.

The models sit behind :class:`~repro.llm.remote.RemoteEndpointModel`
wrappers — identical answers, realistic per-request latency — and the
guard asserts both that the speedup lands (ratio-based, same machine,
same process: runner speed cannot flake it) and that interleaving moves
no record.

A second, deterministic guard covers the planning half of the subsystem:
on a heterogeneity-sorted corpus the cost planner must cut shards whose
predicted durations sit strictly closer together (max − min) than the
count planner's.
"""

from __future__ import annotations

import time

from benchmarks.common import FAST_MODE, bench_dataset
from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.dataset.schema import Category
from repro.evalcluster.cost import CostModel
from repro.llm.interface import GenerationRequest
from repro.llm.registry import available_models, get_model
from repro.llm.remote import RemoteEndpointModel
from repro.pipeline import (
    AsyncExecutor,
    ModelJob,
    MultiModelScheduler,
    ProcessExecutor,
)
from repro.pipeline.planner import CostPlanner, CountPlanner
from repro.scoring.compiled import ReferenceStore

MODEL_NAMES = tuple(available_models())  # the full Table 4 leaderboard

#: Per-request endpoint latency, sized so a model's generation head (the
#: first batch it must generate before anything can be scored) is a real
#: fraction of its wall-clock.  A sequential schedule pays that head once
#: per model — when a model starts, the previous one has already drained,
#: so there is nothing to score while its first batch generates.  The
#: interleaved scheduler pays it once per leaderboard: while one model's
#: batch generates, other models' batches are being scored.
LATENCY_SECONDS = 0.02 if FAST_MODE else 0.03
JITTER_SECONDS = LATENCY_SECONDS / 4

SHARDS = 2
GENERATE_CONCURRENCY = 8
SCORE_WORKERS = 2

#: How many batches the generation workers keep in flight: deep enough
#: that endpoint waits overlap across batches and models.
PREFETCH_BATCHES = 4

#: Streaming batch size: one batch per shard, so every model's run is
#: exactly two generate→score units and the generation head is one half
#: of the model's endpoint time.
BATCH_SIZE = 96 if FAST_MODE else 512

#: The guard: one interleaved leaderboard run must beat the sequential
#: per-model sharded runs end to end by at least this factor (measured
#: ~1.7x fast corpus, ~2x full corpus, on a single core).
MIN_SPEEDUP = 1.3


def _wrapped_models():
    return [
        RemoteEndpointModel(
            get_model(name),
            latency_seconds=LATENCY_SECONDS,
            jitter_seconds=JITTER_SECONDS,
            seed=11,
        )
        for name in MODEL_NAMES
    ]


def _jobs(driver: CloudEvalBenchmark) -> list[ModelJob]:
    jobs = []
    for model in _wrapped_models():
        resolved, requests = driver.requests(model)
        jobs.append(ModelJob(resolved, requests))
    return jobs


def test_multimodel_throughput(benchmark):
    dataset = bench_dataset()
    driver = CloudEvalBenchmark(dataset, BenchmarkConfig())
    store = ReferenceStore()
    # Compile every reference up front so neither timed path pays the
    # one-time compilation cost (whichever ran first would otherwise eat
    # it and skew the ratio).
    for problem in dataset:
        store.get(problem)

    # --- sequential baseline: one sharded run per model, each with its
    # own executors — exactly what per-model evaluate_model calls pay ----
    start = time.perf_counter()
    sequential = {}
    for job in _jobs(driver):
        with ProcessExecutor(max_workers=SCORE_WORKERS) as score_executor:
            with MultiModelScheduler(
                [job],
                shards=SHARDS,
                executor=score_executor,
                generate_executor=AsyncExecutor(max_concurrency=GENERATE_CONCURRENCY),
                store=store,
                batch_size=BATCH_SIZE,
                prefetch_batches=PREFETCH_BATCHES,
            ) as scheduler:
                sequential[job.name] = scheduler.run()[job.name]
    sequential_seconds = time.perf_counter() - start

    # --- interleaved leaderboard through the multi-model scheduler -------
    def run_interleaved():
        with ProcessExecutor(max_workers=SCORE_WORKERS) as score_executor:
            with MultiModelScheduler(
                _jobs(driver),
                shards=SHARDS,
                executor=score_executor,
                generate_executor=AsyncExecutor(max_concurrency=GENERATE_CONCURRENCY),
                store=store,
                batch_size=BATCH_SIZE,
                prefetch_batches=PREFETCH_BATCHES,
            ) as scheduler:
                return scheduler.run()

    result = benchmark.pedantic(run_interleaved, rounds=1, iterations=1)
    interleaved_seconds = benchmark.stats.stats.mean
    speedup = sequential_seconds / interleaved_seconds

    requests = sum(len(evaluation.records) for evaluation in sequential.values())
    benchmark.extra_info["models"] = len(MODEL_NAMES)
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["latency_ms"] = LATENCY_SECONDS * 1000
    benchmark.extra_info["sequential_seconds"] = round(sequential_seconds, 4)
    benchmark.extra_info["interleaved_seconds"] = round(interleaved_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print(
        f"\nLeaderboard over {len(MODEL_NAMES)} models / {requests} requests "
        f"({LATENCY_SECONDS * 1000:.0f}ms endpoint, {SHARDS} shards each):"
        f"\n  sequential per-model runs : {sequential_seconds:6.2f} s"
        f"\n  interleaved scheduler     : {interleaved_seconds:6.2f} s"
        f"\n  speedup                   : {speedup:6.2f} x"
    )

    # Interleaving must not move a single record...
    for name, evaluation in sequential.items():
        assert result[name].records == evaluation.records

    # ...and must actually deliver the wall-clock win (ratio-based guard).
    assert speedup >= MIN_SPEEDUP, (
        f"interleaved leaderboard speedup {speedup:.2f}x fell below the "
        f"{MIN_SPEEDUP}x floor (sequential {sequential_seconds:.2f}s, "
        f"interleaved {interleaved_seconds:.2f}s)"
    )


def test_cost_planner_tightens_predicted_shard_durations():
    """Deterministic guard on the planning half: cost-balanced cuts must
    bring predicted shard durations strictly closer together than
    count-balanced cuts on a heterogeneous corpus."""

    dataset = bench_dataset()
    problems = sorted(
        dataset.originals(),
        key=lambda p: (p.category is not Category.POD, p.category.value),
    )
    requests = [GenerationRequest(problem=p) for p in problems]
    planner = CostPlanner(CostModel(dataset))
    for shards in (4, 8):
        cost_durations = planner.predicted_durations(
            requests, planner.plan(requests, shards)
        )
        count_durations = planner.predicted_durations(
            requests, CountPlanner().plan(requests, shards)
        )
        cost_spread = max(cost_durations) - min(cost_durations)
        count_spread = max(count_durations) - min(count_durations)
        print(
            f"\n{shards} shards over {len(requests)} problems: predicted spread "
            f"{cost_spread:.1f}s (cost) vs {count_spread:.1f}s (count)"
        )
        assert cost_spread < count_spread
        assert max(cost_durations) <= max(count_durations)
