"""Work stealing on a skewed leaderboard, and calibrated re-planning.

Two guards on the dynamic half of the scheduler subsystem:

1. **Stealing overlaps a straggler with everyone else's work.**  One
   model sits behind a slow endpoint (200 ms/request) while the other
   eleven are fast.  The straggler's run is bound by its endpoint waits,
   the others' by scoring CPU, so the two can overlap almost completely.
   The guard times the straggler alone, the other eleven alone, and all
   twelve together on the same stealing scheduler: the combined run must
   beat the sum of the two group runs by >= 1.25x.  That holds only if
   ready batches release in readiness order and the idle scoring consumer
   claims batches itself, so the slow model's generation hides behind
   everyone's scoring end to end.  A schedule that releases batches in a
   fixed global order — the round-robin this guard used to be measured
   against — reads ~1.0x here (1.02-1.09x on two vCPUs).  The guard is a
   same-machine, same-process speedup *ratio*, so a slow runner cannot
   flake it — only a real loss of overlap can.

2. **Calibrated re-planning tightens *measured* shard balance.**  The
   Figure 5 cost model predicts simulated cluster seconds, which are
   dominated by image pulls that cost nothing on this machine — so the
   shards it cuts finish far apart in *measured* seconds.  A first run
   writes every record's measured duration into a
   :class:`~repro.evalcluster.calibration.CalibrationStore`; a second run
   planned with the :class:`~repro.evalcluster.calibration.CalibratedCostModel`
   must show a strictly smaller measured max−min shard completion spread.
   The store the run produces is kept on disk (``BENCH_calibration.jsonl``
   by default) so CI can upload it as an artifact.
"""

from __future__ import annotations

import os
import time

from benchmarks.common import FAST_MODE, artifact_path, bench_dataset
from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.dataset.schema import Category
from repro.evalcluster.calibration import CalibratedCostModel, CalibrationStore
from repro.evalcluster.cost import CostModel
from repro.llm.registry import available_models, get_model
from repro.llm.remote import RemoteEndpointModel
from repro.pipeline import AsyncExecutor, ModelJob, MultiModelScheduler
from repro.pipeline.planner import CostPlanner
from repro.scoring.compiled import ReferenceStore

#: One straggler endpoint in a full Table 4 leaderboard — the skew
#: stealing absorbs.  Eleven fast models supply the scoring-side work the
#: straggler's endpoint waits can hide behind.
MODEL_NAMES = tuple(available_models())
SLOW_MODEL = "gpt-4"
SLOW_LATENCY = 0.2
FAST_LATENCY = 0.002
FAST_MODELS = tuple(name for name in MODEL_NAMES if name != SLOW_MODEL)

SHARDS = 2
GENERATE_CONCURRENCY = 8
PREFETCH_BATCHES = 2

#: The guard: the combined leaderboard must beat the straggler's run plus
#: the other models' run end to end by at least this factor on the skewed
#: corpus (single core).
MIN_SPEEDUP = 1.25

#: Where the calibration guard leaves its store for the CI artifact.
CALIBRATION_STORE_PATH = os.environ.get("REPRO_CALIBRATION_STORE") or artifact_path(
    "BENCH_calibration.jsonl"
)


def _problems():
    return list(bench_dataset().originals())


def _batch_size(total: int) -> int:
    """About eight batches per job, whatever the corpus size."""

    return max(1, round(total / 8))


def _jobs(suite: CloudEvalBenchmark, names) -> list[ModelJob]:
    jobs = []
    for name in names:
        latency = SLOW_LATENCY if name == SLOW_MODEL else FAST_LATENCY
        model = RemoteEndpointModel(
            get_model(name), latency_seconds=latency, jitter_seconds=latency / 16, seed=11
        )
        resolved, requests = suite.requests(model, problems=_problems())
        jobs.append(ModelJob(resolved, requests))
    return jobs


def _run_leaderboard(suite: CloudEvalBenchmark, store: ReferenceStore, names):
    problems = _problems()
    with MultiModelScheduler(
        _jobs(suite, names),
        shards=SHARDS,
        executor="serial",
        generate_executor=AsyncExecutor(max_concurrency=GENERATE_CONCURRENCY),
        store=store,
        batch_size=_batch_size(len(problems)),
        prefetch_batches=PREFETCH_BATCHES,
    ) as scheduler:
        return scheduler.run()


def _timed_leaderboard(suite: CloudEvalBenchmark, store: ReferenceStore, names):
    start = time.perf_counter()
    result = _run_leaderboard(suite, store, names)
    return result, time.perf_counter() - start


def test_stealing_overlaps_the_straggler_with_the_rest(benchmark):
    dataset = bench_dataset()
    suite = CloudEvalBenchmark(dataset, BenchmarkConfig())
    store = ReferenceStore()
    for problem in dataset:
        store.get(problem)

    # Warm every process-level cache (reference compilation, parsed
    # manifests) with an untimed latency-free pass, so no timed run pays
    # one-time costs the others inherit for free.
    warm_suite = CloudEvalBenchmark(dataset, BenchmarkConfig())
    for name in MODEL_NAMES:
        warm_suite.evaluate_model(name, problems=_problems())

    # --- each group alone: nothing to overlap across the groups ----------
    straggler, straggler_seconds = _timed_leaderboard(suite, store, (SLOW_MODEL,))
    others, others_seconds = _timed_leaderboard(suite, store, FAST_MODELS)
    separate_seconds = straggler_seconds + others_seconds

    # --- all twelve together on the same stealing scheduler -------------
    result = benchmark.pedantic(
        lambda: _run_leaderboard(suite, store, MODEL_NAMES), rounds=1, iterations=1
    )
    combined_seconds = benchmark.stats.stats.mean
    speedup = separate_seconds / combined_seconds

    requests = sum(len(evaluation.records) for evaluation in result.values())
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["slow_latency_ms"] = SLOW_LATENCY * 1000
    benchmark.extra_info["straggler_seconds"] = round(straggler_seconds, 4)
    benchmark.extra_info["others_seconds"] = round(others_seconds, 4)
    benchmark.extra_info["combined_seconds"] = round(combined_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print(
        f"\nSkewed leaderboard over {len(MODEL_NAMES)} models / {requests} requests "
        f"({SLOW_MODEL} at {SLOW_LATENCY * 1000:.0f}ms, rest at {FAST_LATENCY * 1000:.0f}ms):"
        f"\n  {SLOW_MODEL} alone          : {straggler_seconds:6.2f} s"
        f"\n  other {len(FAST_MODELS)} alone        : {others_seconds:6.2f} s"
        f"\n  all {len(MODEL_NAMES)} together       : {combined_seconds:6.2f} s"
        f"\n  speedup              : {speedup:6.2f} x"
    )

    # Scheduling the groups together must not move a single record...
    assert list(result) == list(MODEL_NAMES)
    for group in (straggler, others):
        for name, evaluation in group.items():
            assert result[name].records == evaluation.records

    # ...and stealing must actually overlap them (ratio-based guard).
    assert speedup >= MIN_SPEEDUP, (
        f"stealing speedup {speedup:.2f}x fell below the {MIN_SPEEDUP}x floor "
        f"({SLOW_MODEL} alone {straggler_seconds:.2f}s + others alone "
        f"{others_seconds:.2f}s vs together {combined_seconds:.2f}s)"
    )


def test_calibrated_replanning_tightens_measured_shard_spread():
    """Cold predict → warm calibrated: the two-run workflow must shrink the
    measured max−min shard completion spread versus Figure 5-only cuts."""

    dataset = bench_dataset()
    # Heterogeneity-sorted corpus: cheap Pod problems up front, image-heavy
    # problems at the back — the layout where modelled and measured costs
    # disagree the most.
    problems = sorted(
        dataset.originals(),
        key=lambda p: (p.category is not Category.POD, p.category.value),
    )
    if os.path.exists(CALIBRATION_STORE_PATH):
        os.remove(CALIBRATION_STORE_PATH)
    calibration = CalibrationStore(CALIBRATION_STORE_PATH)
    references = ReferenceStore()
    shards = 4

    def run(planner: CostPlanner):
        model, requests = CloudEvalBenchmark(dataset, BenchmarkConfig()).requests(
            "gpt-4", problems=problems
        )
        with MultiModelScheduler(
            [ModelJob(model, requests)],
            shards=shards,
            planner=planner,
            store=references,
            calibration=calibration,
        ) as scheduler:
            return requests, scheduler.run()[model.name]

    # Run 1 — cold: shards cut on the Figure 5 constants alone, while the
    # calibration store records what every problem actually took.
    figure5_planner = CostPlanner(CostModel())
    requests, _cold = run(figure5_planner)
    assert len(calibration) == len(problems)

    # Run 2 — warm: shards cut on the observed durations (the prior fully
    # handed over: this machine re-runs the same corpus, so the
    # measurements *are* the truth the planner should balance).
    calibrated_planner = CostPlanner(CalibratedCostModel(store=calibration, prior_weight=0.0))
    figure5_plan = figure5_planner.plan(requests, shards)
    calibrated_plan = calibrated_planner.plan(requests, shards)
    _requests2, warm = run(calibrated_planner)

    # Ground truth: the measured per-record seconds of the warm run.
    measured = [record.measured_seconds for record in warm.records]

    def measured_spread(plan):
        durations = [
            sum(measured[start:stop]) for start, stop in plan.bounds()
        ]
        return max(durations) - min(durations), durations

    figure5_spread, figure5_durations = measured_spread(figure5_plan)
    calibrated_spread, calibrated_durations = measured_spread(calibrated_plan)

    print(
        f"\nMeasured shard completion seconds over {len(problems)} problems, {shards} shards:"
        f"\n  Figure 5 cuts   : {[f'{d:.3f}' for d in figure5_durations]}"
        f" (spread {figure5_spread:.3f}s)"
        f"\n  calibrated cuts : {[f'{d:.3f}' for d in calibrated_durations]}"
        f" (spread {calibrated_spread:.3f}s)"
        f"\n  calibration store: {CALIBRATION_STORE_PATH} ({len(calibration)} problems)"
    )

    # The warm plan must balance what the stopwatch measures, not what the
    # paper's constants model — strictly tighter, with real margin.
    assert calibrated_spread < figure5_spread
    assert calibrated_spread < figure5_spread * (0.9 if FAST_MODE else 0.8)
    # The artifact the CI job uploads must exist and reload cleanly.
    assert len(CalibrationStore(CALIBRATION_STORE_PATH)) == len(problems)
