"""Work stealing: the steal policy's determinism under a virtual clock,
and the bit-identity of stolen schedules with sequential evaluation."""

from __future__ import annotations

import itertools

import pytest

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.evalcluster.calibration import CalibrationStore
from repro.llm.interface import GenerationRequest
from repro.llm.registry import get_model
from repro.pipeline import (
    ModelJob,
    MultiModelScheduler,
    PipelineCheckpoint,
    StealPolicy,
    model_checkpoint_base,
    shard_checkpoint_path,
)
from repro.pipeline.executors import EXECUTOR_NAMES
from repro.scoring.compiled import ReferenceStore
from repro.utils.rng import DeterministicRNG

MODELS = ["gpt-4", "llama-2-13b-chat"]


def _requests(problems):
    return [GenerationRequest(problem=p) for p in problems]


# ---------------------------------------------------------------------------
# The steal policy as a pure function
# ---------------------------------------------------------------------------

def test_policy_picks_longest_remaining():
    policy = StealPolicy()
    assert policy.choose([5.0, 9.0, 2.0], [True, True, True]) == 1
    assert policy.choose([5.0, 9.0, 2.0], [True, False, True]) == 0
    assert policy.choose([5.0, 9.0, 2.0], [False, False, False]) is None
    assert policy.choose([], []) is None


def test_policy_breaks_ties_on_lowest_index():
    policy = StealPolicy()
    assert policy.choose([3.0, 3.0, 3.0], [True, True, True]) == 0
    assert policy.choose([1.0, 3.0, 3.0], [True, True, True]) == 1


def test_policy_deprioritises_busy_jobs():
    policy = StealPolicy()
    # The longest job is mid-generation: steal from the longest *free* one.
    assert policy.choose([5.0, 9.0, 2.0], [True, True, True], busy=[False, True, False]) == 0
    # Every claimable job is busy: fall back to the longest overall.
    assert policy.choose([5.0, 9.0, 2.0], [True, True, True], busy=[True, True, True]) == 1
    assert policy.choose([5.0, 9.0, 2.0], [False, True, False], busy=[False, True, False]) == 1


# ---------------------------------------------------------------------------
# Acceptance: steal-order determinism under a seeded virtual clock
# ---------------------------------------------------------------------------

def _simulate_steal_schedule(seed: int, jobs: int, units_per_job: int, workers: int):
    """Drive the steal policy through a deterministic virtual-clock loop.

    Unit durations come from a seeded RNG; ``workers`` virtual generation
    workers claim via the policy whenever idle and "run" each claimed unit
    for its drawn duration on the virtual clock — the same decision
    sequence the real scheduler makes, minus the threads.  Returns the
    claim order and the per-worker completion times.
    """

    rng = DeterministicRNG(seed).child("steal-sim")
    durations = [
        [float(rng.child("unit", j, u).uniform(0.5, 9.5)) for u in range(units_per_job)]
        for j in range(jobs)
    ]
    remaining = [sum(job_durations) for job_durations in durations]
    next_claim = [0] * jobs
    busy_until = [0.0] * workers
    busy_job: list[int | None] = [None] * workers
    policy = StealPolicy()
    claims: list[tuple[int, int]] = []
    clock = 0.0
    while any(next_claim[j] < units_per_job for j in range(jobs)):
        worker = min(range(workers), key=lambda w: (busy_until[w], w))
        clock = max(clock, busy_until[worker])
        busy_job[worker] = None
        claimable = [next_claim[j] < units_per_job for j in range(jobs)]
        busy = [
            any(busy_job[w] == j and busy_until[w] > clock for w in range(workers))
            for j in range(jobs)
        ]
        choice = policy.choose(remaining, claimable, busy)
        if choice is None:  # pragma: no cover - loop condition prevents this
            break
        unit = next_claim[choice]
        next_claim[choice] += 1
        remaining[choice] -= durations[choice][unit]
        busy_until[worker] = clock + durations[choice][unit]
        busy_job[worker] = choice
        claims.append((choice, unit))
    return claims, sorted(busy_until)


def test_steal_order_is_deterministic_under_a_seeded_virtual_clock():
    first = _simulate_steal_schedule(seed=17, jobs=4, units_per_job=5, workers=3)
    second = _simulate_steal_schedule(seed=17, jobs=4, units_per_job=5, workers=3)
    assert first == second
    different = _simulate_steal_schedule(seed=18, jobs=4, units_per_job=5, workers=3)
    assert different[0] != first[0]  # the schedule really depends on the draws


def test_simulated_schedule_claims_jobs_in_order_and_exhaustively():
    claims, _ = _simulate_steal_schedule(seed=17, jobs=3, units_per_job=4, workers=2)
    assert len(claims) == 12
    for job in range(3):
        units = [u for j, u in claims if j == job]
        assert units == sorted(units)  # within a job, claims are in order
    # The very first claim attacks the job with the longest predicted total.
    rng = DeterministicRNG(17).child("steal-sim")
    totals = [
        sum(float(rng.child("unit", j, u).uniform(0.5, 9.5)) for u in range(4)) for j in range(3)
    ]
    assert claims[0][0] == max(range(3), key=lambda j: totals[j])


# ---------------------------------------------------------------------------
# Acceptance: stealing changes no record, with or without calibration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def steal_problems(small_dataset):
    return list(small_dataset)[:14]


@pytest.fixture(scope="module")
def steal_truth(small_dataset, steal_problems):
    benchmark = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7))
    return {
        name: benchmark.evaluate_model(name, problems=steal_problems) for name in MODELS
    }


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_steal_leaderboard_identical_across_executors(
    small_dataset, steal_problems, steal_truth, executor
):
    config = BenchmarkConfig(seed=7, executor=executor, max_workers=3, shards=3)
    result = CloudEvalBenchmark(small_dataset, config).evaluate_models(
        models=MODELS, problems=steal_problems
    )
    for name in MODELS:
        assert result[name].records == steal_truth[name].records


def test_calibrated_steal_run_is_identical_cold_and_warm(
    tmp_path, small_dataset, steal_problems, steal_truth
):
    """Two calibrated runs over one store: the cold run observes, the warm
    run plans and steals on those observations — neither moves a record."""

    config = BenchmarkConfig(
        seed=7, shards=3, shard_by="cost", calibration=tmp_path / "cal.jsonl"
    )
    cold = CloudEvalBenchmark(small_dataset, config).evaluate_models(
        models=MODELS, problems=steal_problems
    )
    store = CalibrationStore(tmp_path / "cal.jsonl")
    assert len(store) > 0  # the cold run measured and persisted durations
    warm = CloudEvalBenchmark(small_dataset, config).evaluate_models(
        models=MODELS, problems=steal_problems
    )
    for name in MODELS:
        assert cold[name].records == steal_truth[name].records
        assert warm[name].records == steal_truth[name].records


def test_killed_stealing_run_resumes_to_identical_result(
    tmp_path, small_dataset, steal_problems, steal_truth
):
    """Abandoning a stealing leaderboard run mid-stream and re-running it
    from the per-(model, shard) checkpoints reproduces the sequential
    evaluations exactly — with calibration observing throughout."""

    base = tmp_path / "steal.ckpt.jsonl"
    store = CalibrationStore(tmp_path / "cal.jsonl")
    benchmark = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7, shards=2))

    jobs = []
    for name in MODELS:
        model, requests = benchmark.requests(name, problems=steal_problems)
        jobs.append(ModelJob(model, requests, checkpoint=model_checkpoint_base(base, name)))
    first = MultiModelScheduler(
        jobs,
        shards=2,
        store=ReferenceStore(),
        batch_size=3,
        prefetch_batches=1,
        calibration=store,
    )
    consumed = list(itertools.islice(first.run_iter(), 9))
    first.close()
    assert 0 < len(consumed) < 2 * len(steal_problems)

    checkpointed = 0
    for name in MODELS:
        for index in range(2):
            path = shard_checkpoint_path(model_checkpoint_base(base, name), index, 2)
            if path.exists():
                checkpointed += len(PipelineCheckpoint(path))
    assert checkpointed >= len(consumed)
    assert checkpointed < 2 * len(steal_problems)

    resumed = benchmark.evaluate_models(
        models=MODELS, problems=steal_problems, checkpoint=base
    )
    for name in MODELS:
        assert resumed[name].records == steal_truth[name].records


def test_run_iter_streams_stragglers_without_blocking(small_original_problems):
    """With stealing, a model's finished batches stream out even while the
    other model still has work in flight — per-model order preserved."""

    problems = list(small_original_problems)[:12]
    jobs = [
        ModelJob(get_model("gpt-4"), _requests(problems)),
        ModelJob(get_model("gpt-3.5"), _requests(problems)),
    ]
    with MultiModelScheduler(
        jobs, shards=2, store=ReferenceStore(), batch_size=3
    ) as scheduler:
        streamed = list(scheduler.run_iter())
    assert len(streamed) == 2 * len(problems)
    for model_name in ("gpt-4", "gpt-3.5"):
        ids = [record.problem_id for name, record in streamed if name == model_name]
        assert ids == [p.problem_id for p in problems]
