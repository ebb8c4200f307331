"""Sharded single-model runs: plans, streaming overlap, merge, resume.

A sharded run is one :class:`~repro.pipeline.scheduler.ModelJob` on the
:class:`~repro.pipeline.scheduler.MultiModelScheduler`; the public entry
point is ``CloudEvalBenchmark.evaluate_model`` with ``shards > 1``.
"""

from __future__ import annotations

import itertools
import json
import shutil
from pathlib import Path

import pytest

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.llm.interface import GenerationRequest
from repro.llm.registry import get_model
from repro.pipeline import (
    EvaluationPipeline,
    ModelJob,
    MultiModelScheduler,
    PipelineCheckpoint,
    ShardPlan,
    merge_evaluations,
    shard_checkpoint_path,
)
from repro.pipeline.records import ModelEvaluation
from repro.scoring.compiled import ReferenceStore

#: Shard checkpoint files written by the sharded entry point before it was
#: folded into the scheduler: gpt-4 (seed 7, calibrated) over nine
#: small-corpus originals (``PRE_SCHEDULER_PROBLEMS``), ``shards=3,
#: batch_size=2``, stopped after four streamed records — shard 0
#: complete, shard 1 two of three, shard 2 never started.
PRE_SCHEDULER_SHARDS = Path(__file__).parent / "data" / "pre_scheduler_shards"
PRE_SCHEDULER_PROBLEMS = slice(27, 36)


def _requests(problems):
    return [GenerationRequest(problem=p) for p in problems]


def _benchmark(dataset, **config) -> CloudEvalBenchmark:
    return CloudEvalBenchmark(dataset, BenchmarkConfig(seed=7, **config))


def _truth(dataset, model_name, problems) -> ModelEvaluation:
    """The unsharded evaluation — the bit-identity baseline."""

    return _benchmark(dataset).evaluate_model(model_name, problems=problems)


def _shard_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if not p.name.endswith(".lock"))


# ---------------------------------------------------------------------------
# ShardPlan
# ---------------------------------------------------------------------------

def test_shard_plan_sizes_are_balanced_and_exhaustive():
    plan = ShardPlan.for_size(10, 4)
    assert plan.sizes == (3, 3, 2, 2)
    assert sum(plan.sizes) == plan.total
    assert plan.bounds() == ((0, 3), (3, 6), (6, 8), (8, 10))


def test_shard_plan_split_is_contiguous_and_order_preserving():
    plan = ShardPlan.for_size(11, 3)
    items = list(range(11))
    shards = plan.split(items)
    assert [x for shard in shards for x in shard] == items
    assert [plan.shard_of(i) for i in (0, 3, 4, 7, 8, 10)] == [0, 0, 1, 1, 2, 2]


def test_shard_plan_clamps_empty_shards():
    assert ShardPlan.for_size(2, 8).num_shards == 2
    assert ShardPlan.for_size(0, 8).num_shards == 1
    with pytest.raises(ValueError):
        ShardPlan.for_size(5, 0)
    with pytest.raises(ValueError):
        ShardPlan.for_size(5, 3).split([1, 2])


def test_shard_checkpoint_path_is_stable_and_bounded(tmp_path):
    base = tmp_path / "run.ckpt.jsonl"
    assert shard_checkpoint_path(base, 2, 4).name == "run.ckpt.jsonl.shard-02-of-04"
    with pytest.raises(ValueError):
        shard_checkpoint_path(base, 4, 4)


# ---------------------------------------------------------------------------
# Streaming through the scheduler
# ---------------------------------------------------------------------------

def test_sharded_run_matches_unsharded(small_original_problems):
    problems = list(small_original_problems)[:20]
    truth = _truth(small_original_problems, "gpt-4", problems)
    evaluation = _benchmark(small_original_problems, shards=4, batch_size=3).evaluate_model(
        "gpt-4", problems=problems
    )
    assert evaluation.records == truth.records
    assert evaluation.model_name == truth.model_name


def test_sharded_streaming_preserves_request_order(small_original_problems):
    problems = list(small_original_problems)[:15]
    with MultiModelScheduler(
        [ModelJob(get_model("gpt-3.5"), _requests(problems))],
        shards=3,
        store=ReferenceStore(),
        batch_size=2,
    ) as scheduler:
        streamed = list(scheduler.run_iter())
    assert {name for name, _record in streamed} == {"gpt-3.5"}
    assert [r.problem_id for _name, r in streamed] == [p.problem_id for p in problems]


def test_sharded_rejects_checkpoint_instances(tmp_path, small_original_problems):
    problems = list(small_original_problems)[:2]
    with pytest.raises(TypeError, match="base"):
        _benchmark(small_original_problems, shards=2).evaluate_model(
            "gpt-4", problems=problems, checkpoint=PipelineCheckpoint(tmp_path / "x.jsonl")
        )


def test_producer_error_propagates_to_consumer(small_original_problems):
    class Exploding:
        name = "gpt-4"

        def generate(self, problem, shots=0, sample_index=0):
            raise KeyboardInterrupt("user abort")  # not caught by error capture

    benchmark = _benchmark(small_original_problems, shards=2)
    with pytest.raises(KeyboardInterrupt, match="user abort"):
        benchmark.evaluate_model(Exploding(), problems=list(small_original_problems)[:4])


# ---------------------------------------------------------------------------
# merge_evaluations
# ---------------------------------------------------------------------------

def test_merge_of_independently_run_shards_is_bit_identical(small_original_problems):
    problems = list(small_original_problems)[:18]
    requests = _requests(problems)
    truth = EvaluationPipeline(get_model("gpt-4"), store=ReferenceStore()).run(requests)

    plan = ShardPlan.for_size(len(requests), 4)
    shard_evaluations = [
        EvaluationPipeline(get_model("gpt-4"), store=ReferenceStore()).run(chunk)
        for chunk in plan.split(requests)
    ]
    merged = merge_evaluations(shard_evaluations)
    assert merged.records == truth.records
    assert merged.mean_scores() == truth.mean_scores()


def test_merge_rejects_mixed_models_and_empty_input():
    with pytest.raises(ValueError, match="no evaluations"):
        merge_evaluations([])
    with pytest.raises(ValueError, match="different models"):
        merge_evaluations([ModelEvaluation(model_name="a"), ModelEvaluation(model_name="b")])


def test_merge_error_names_the_disagreeing_shard(small_original_problems):
    """The mismatch error must say which shard index disagreed and list the
    shard sizes, so a mis-assembled merge is debuggable from the message."""

    problems = list(small_original_problems)[:4]
    gpt4 = EvaluationPipeline(get_model("gpt-4"), store=ReferenceStore()).run(_requests(problems))
    gpt35 = EvaluationPipeline(get_model("gpt-3.5"), store=ReferenceStore()).run(
        _requests(problems[:2])
    )
    with pytest.raises(ValueError) as excinfo:
        merge_evaluations([gpt4, gpt4, gpt35])
    message = str(excinfo.value)
    assert "shard 2" in message and "'gpt-3.5'" in message and "'gpt-4'" in message
    assert "[4, 4, 2]" in message  # the shard sizes

    empty_message = ""
    with pytest.raises(ValueError) as excinfo:
        merge_evaluations([])
    empty_message = str(excinfo.value)
    assert "empty sequence" in empty_message


# ---------------------------------------------------------------------------
# Empty shards and planner pass-through
# ---------------------------------------------------------------------------

def test_empty_run_builds_no_checkpoints(tmp_path, small_original_problems):
    """Zero requests plan to one empty shard, which must be skipped: no
    sub-pipeline, no checkpoint file, an empty evaluation."""

    base = tmp_path / "empty.ckpt.jsonl"
    evaluation = _benchmark(small_original_problems, shards=4).evaluate_model(
        "gpt-4", problems=[], checkpoint=str(base)
    )
    assert evaluation.records == []
    assert evaluation.model_name == "gpt-4"
    assert list(tmp_path.iterdir()) == []


def test_cost_planned_shards_match_unsharded(small_original_problems):
    """A cost-balanced plan moves the cut points, not the records."""

    problems = list(small_original_problems)[:18]
    truth = _truth(small_original_problems, "gpt-4", problems)
    evaluation = _benchmark(
        small_original_problems, shards=3, shard_by="cost", batch_size=4
    ).evaluate_model("gpt-4", problems=problems)
    assert evaluation.records == truth.records


# ---------------------------------------------------------------------------
# Acceptance: kill + resume
# ---------------------------------------------------------------------------

def test_killed_sharded_run_resumes_to_identical_evaluation(tmp_path, small_original_problems):
    """Resuming a killed sharded run from its per-shard checkpoints
    reproduces the uninterrupted run's ModelEvaluation exactly."""

    problems = list(small_original_problems)[:24]
    truth = _truth(small_original_problems, "gpt-4", problems)
    benchmark = _benchmark(small_original_problems, shards=4, batch_size=3)
    model, requests = benchmark.requests("gpt-4", problems=problems)

    base = tmp_path / "sharded.ckpt.jsonl"
    first = MultiModelScheduler(
        [ModelJob(model, requests, checkpoint=base)],
        shards=4,
        store=ReferenceStore(),
        batch_size=3,
    )
    # "Kill" the run: consume part of the stream, then abandon the generator.
    consumed = list(itertools.islice(first.run_iter(), 10))
    first.close()
    assert [r.problem_id for _name, r in consumed] == [p.problem_id for p in problems[:10]]

    # Some shards checkpointed work, and none checkpointed everything.
    per_shard = [len(PipelineCheckpoint(shard_checkpoint_path(base, i, 4))) for i in range(4)]
    assert sum(per_shard) >= len(consumed)
    assert sum(per_shard) < len(requests)

    evaluation = benchmark.evaluate_model("gpt-4", problems=problems, checkpoint=str(base))
    assert evaluation.records == truth.records


def test_resume_with_different_executors_still_identical(tmp_path, small_original_problems):
    """A run interrupted under one backend can resume under another."""

    problems = list(small_original_problems)[:12]
    truth = _truth(small_original_problems, "gpt-3.5", problems)
    model, requests = _benchmark(small_original_problems).requests("gpt-3.5", problems=problems)

    base = tmp_path / "swap.ckpt.jsonl"
    first = MultiModelScheduler(
        [ModelJob(model, requests, checkpoint=base)],
        shards=3, executor="thread", max_workers=2, store=ReferenceStore(), batch_size=2,
    )
    list(itertools.islice(first.run_iter(), 5))
    first.close()

    second = _benchmark(
        small_original_problems, shards=3, executor="async", generate_executor="async",
        max_workers=4, batch_size=2,
    )
    evaluation = second.evaluate_model("gpt-3.5", problems=problems, checkpoint=str(base))
    assert evaluation.records == truth.records


def test_resumes_shard_files_written_by_the_removed_sharded_pipeline(
    tmp_path, small_original_problems
):
    """A partial run checkpointed by the old single-model sharded class
    resumes under ``evaluate_model``: the same shard file names are read
    and appended to, the checkpointed records are served as stored, and
    the result equals an uninterrupted unsharded run."""

    for path in PRE_SCHEDULER_SHARDS.iterdir():
        shutil.copy(path, tmp_path / path.name)
    before = {path.name: path.read_text() for path in tmp_path.iterdir()}
    stored = [
        json.loads(line)
        for name in sorted(before)
        for line in before[name].splitlines()
    ]
    assert len(stored) == 5

    problems = list(small_original_problems)[PRE_SCHEDULER_PROBLEMS]
    truth = _truth(small_original_problems, "gpt-4", problems)
    evaluation = _benchmark(small_original_problems, shards=3, batch_size=2).evaluate_model(
        "gpt-4", problems=problems, checkpoint=str(tmp_path / "run.ckpt.jsonl")
    )
    assert evaluation.records == truth.records

    # Same file names — the missing third shard joins them — and the old
    # files were appended to, never rewritten.
    assert _shard_files(tmp_path) == [
        "run.ckpt.jsonl.shard-00-of-03",
        "run.ckpt.jsonl.shard-01-of-03",
        "run.ckpt.jsonl.shard-02-of-03",
    ]
    for name, content in before.items():
        assert (tmp_path / name).read_text().startswith(content)
    assert [len(PipelineCheckpoint(tmp_path / name)) for name in _shard_files(tmp_path)] == [
        3,
        3,
        3,
    ]

    # Checkpointed records come back as stored (their measured seconds
    # included), so none of them was generated again.
    assert [
        (record.problem_id, record.generate_seconds, record.score_seconds)
        for record in evaluation.records[: len(stored)]
    ] == [
        (entry["problem_id"], entry["generate_seconds"], entry["score_seconds"])
        for entry in stored
    ]
