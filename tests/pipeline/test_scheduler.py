"""The multi-model leaderboard scheduler: interleaving, equivalence with
sequential evaluation across every backend and planner, and resume."""

from __future__ import annotations

import itertools

import pytest

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.llm.interface import GenerationRequest
from repro.llm.registry import get_model
from repro.pipeline import (
    ModelJob,
    MultiModelScheduler,
    PipelineCheckpoint,
    model_checkpoint_base,
    shard_checkpoint_path,
)
from repro.pipeline.executors import EXECUTOR_NAMES
from repro.scoring.compiled import ReferenceStore

MODELS = ["gpt-4", "llama-2-13b-chat"]
SAMPLE_SIZE = 14


def _requests(problems):
    return [GenerationRequest(problem=p) for p in problems]


@pytest.fixture(scope="module")
def seeded_problems(small_dataset):
    return list(small_dataset)[:SAMPLE_SIZE]


@pytest.fixture(scope="module")
def sequential_truth(small_dataset, seeded_problems):
    """Sequential per-model evaluate_model runs — the bit-identity baseline."""

    benchmark = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7))
    return {
        name: benchmark.evaluate_model(name, problems=seeded_problems) for name in MODELS
    }


# ---------------------------------------------------------------------------
# Acceptance: evaluate_models ≡ sequential evaluate_model, everywhere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("one_model_at_a_time", [False, True])
@pytest.mark.parametrize("shard_by", ["count", "cost"])
@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_leaderboard_identical_across_executors_and_planners(
    small_dataset, seeded_problems, sequential_truth, executor, shard_by, one_model_at_a_time
):
    """Both scheduler entry points — ``evaluate_models`` interleaving every
    model, and ``evaluate_model`` with ``shards > 1`` scheduling one — give
    the sequential records on every backend and planner."""

    config = BenchmarkConfig(
        seed=7, executor=executor, max_workers=3, shards=3, shard_by=shard_by
    )
    benchmark = CloudEvalBenchmark(small_dataset, config)
    if one_model_at_a_time:
        result = {
            name: benchmark.evaluate_model(name, problems=seeded_problems)
            for name in MODELS
        }
    else:
        result = benchmark.evaluate_models(models=MODELS, problems=seeded_problems)
        assert result.models() == MODELS
    for name in MODELS:
        assert result[name].records == sequential_truth[name].records


def test_interleaved_async_generation_with_process_scoring_identical(
    small_dataset, seeded_problems, sequential_truth
):
    """The headline configuration — async generation, process scoring,
    cost-planned shards, all models interleaved — changes no record."""

    config = BenchmarkConfig(
        seed=7,
        executor="process",
        generate_executor="async",
        max_workers=3,
        shards=2,
        shard_by="cost",
        rate_limit=10_000.0,
    )
    result = CloudEvalBenchmark(small_dataset, config).evaluate_models(
        models=MODELS, problems=seeded_problems
    )
    for name in MODELS:
        assert result[name].records == sequential_truth[name].records


def test_run_iter_interleaves_but_keeps_per_model_order(small_original_problems):
    problems = list(small_original_problems)[:12]
    jobs = [
        ModelJob(get_model("gpt-4"), _requests(problems)),
        ModelJob(get_model("gpt-3.5"), _requests(problems)),
    ]
    with MultiModelScheduler(
        jobs, shards=2, store=ReferenceStore(), batch_size=3
    ) as scheduler:
        streamed = list(scheduler.run_iter())
    names = [name for name, _ in streamed]
    assert set(names) == {"gpt-4", "gpt-3.5"}
    # Models weave (the stream is not one model then the other)...
    first_block = names[: names.index("gpt-3.5")]
    assert len(first_block) < len(problems)
    # ...but within each model, records stay in request order.
    for model_name in ("gpt-4", "gpt-3.5"):
        ids = [record.problem_id for name, record in streamed if name == model_name]
        assert ids == [p.problem_id for p in problems]


# ---------------------------------------------------------------------------
# Scheduler contracts
# ---------------------------------------------------------------------------

def test_duplicate_model_names_are_rejected(small_original_problems):
    requests = _requests(list(small_original_problems)[:2])
    jobs = [ModelJob(get_model("gpt-4"), requests), ModelJob(get_model("gpt-4"), requests)]
    with pytest.raises(ValueError, match="distinct"):
        MultiModelScheduler(jobs)


def test_evaluate_models_deduplicates_repeated_models(small_dataset, seeded_problems):
    """A repeated model in the public API is scheduled once, not rejected
    (evaluation is deterministic, so the old evaluate-twice-keep-one
    behaviour returned the same result more slowly)."""

    benchmark = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7))
    result = benchmark.evaluate_models(models=["gpt-4", "gpt-4"], problems=seeded_problems)
    assert result.models() == ["gpt-4"]
    assert len(result["gpt-4"].records) == len(seeded_problems)


def test_checkpoint_instances_are_rejected(tmp_path, small_original_problems):
    job = ModelJob(
        get_model("gpt-4"),
        _requests(list(small_original_problems)[:2]),
        checkpoint=PipelineCheckpoint(tmp_path / "x.jsonl"),
    )
    with pytest.raises(TypeError, match="base"):
        MultiModelScheduler([job])


def test_empty_job_builds_no_pipelines_or_checkpoints(tmp_path):
    """A job with zero requests is planned as one empty shard, which must
    not materialise a pipeline or touch the filesystem."""

    base = tmp_path / "empty.ckpt.jsonl"
    with MultiModelScheduler(
        [ModelJob(get_model("gpt-4"), [], checkpoint=base)], shards=4
    ) as scheduler:
        evaluations = scheduler.run()
    assert evaluations["gpt-4"].records == []
    assert evaluations["gpt-4"].model_name == "gpt-4"
    assert scheduler._pipelines == []
    assert list(tmp_path.iterdir()) == []


def test_rate_limited_generation_uses_a_single_worker(small_original_problems):
    """A shared token bucket must never be drained from several generation
    workers at once — including when the limiter-bearing async executor is
    the *main* executor that generation merely falls back to."""

    from repro.pipeline.executors import AsyncExecutor

    requests = _requests(list(small_original_problems)[:8])
    jobs = [ModelJob(get_model("gpt-4"), requests)]
    limited = AsyncExecutor(max_concurrency=4, rate_limit=1000.0)
    unlimited = AsyncExecutor(max_concurrency=4)

    as_generate = MultiModelScheduler(jobs, generate_executor=limited, prefetch_batches=4)
    as_fallback = MultiModelScheduler(jobs, executor=limited, prefetch_batches=4)
    free = MultiModelScheduler(jobs, generate_executor=unlimited, prefetch_batches=4)
    assert as_generate._generation_workers(8) == 1
    assert as_fallback._generation_workers(8) == 1
    assert free._generation_workers(8) == 4


def test_producer_error_propagates_to_consumer(small_original_problems):
    class Exploding:
        name = "gpt-4"

        def generate(self, problem, shots=0, sample_index=0):
            raise KeyboardInterrupt("user abort")  # not caught by error capture

    jobs = [ModelJob(Exploding(), _requests(list(small_original_problems)[:4]))]
    with MultiModelScheduler(jobs, shards=2, store=ReferenceStore()) as scheduler:
        with pytest.raises(KeyboardInterrupt, match="user abort"):
            list(scheduler.run_iter())


# ---------------------------------------------------------------------------
# Acceptance: kill + resume of a multi-model run
# ---------------------------------------------------------------------------

def test_killed_leaderboard_run_resumes_to_identical_result(
    tmp_path, small_dataset, seeded_problems, sequential_truth
):
    """Abandoning an interleaved leaderboard run mid-stream and re-running
    it from the per-(model, shard) checkpoints reproduces the sequential
    evaluations exactly."""

    base = tmp_path / "leaderboard.ckpt.jsonl"
    config = BenchmarkConfig(seed=7, shards=2)
    benchmark = CloudEvalBenchmark(small_dataset, config)

    # Build the same scheduler evaluate_models would, but "kill" the run
    # by abandoning the stream partway through.
    jobs = []
    for name in MODELS:
        model, requests = benchmark.requests(name, problems=seeded_problems)
        jobs.append(ModelJob(model, requests, checkpoint=model_checkpoint_base(base, name)))
    first = MultiModelScheduler(
        jobs, shards=2, store=ReferenceStore(), batch_size=3, prefetch_batches=1
    )
    consumed = list(itertools.islice(first.run_iter(), 9))
    first.close()
    assert 0 < len(consumed) < 2 * SAMPLE_SIZE

    # Both models checkpointed some shards, and nothing checkpointed everything.
    checkpointed = 0
    for name in MODELS:
        for index in range(2):
            path = shard_checkpoint_path(model_checkpoint_base(base, name), index, 2)
            if path.exists():
                checkpointed += len(PipelineCheckpoint(path))
    assert consumed and checkpointed >= len(consumed)
    assert checkpointed < 2 * SAMPLE_SIZE

    resumed = benchmark.evaluate_models(
        models=MODELS, problems=seeded_problems, checkpoint=base
    )
    for name in MODELS:
        assert resumed[name].records == sequential_truth[name].records
