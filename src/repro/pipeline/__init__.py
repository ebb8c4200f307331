"""Staged evaluation pipeline (query → post-process → score → aggregate).

The paper's system is a pipeline of explicit components; this package
makes each one a typed, pluggable stage connected by an
:class:`EvaluationPipeline` that streams per-record results, checkpoints
partial runs and fans parallelisable work out over an executor — serial,
thread-pool, the in-process evaluation-cluster runtime that shares its
job/claim/report protocol with the Figure 5 simulation, an asyncio
backend with token-bucket rate limiting for remote endpoints, or a
process pool for CPU-bound scoring.

For wall-clock-bound runs, :class:`MultiModelScheduler` splits each
model's requests into ``N`` contiguous shards (one checkpoint file each)
and streams them: generation of shard *k+1* overlaps scoring of shard
*k*, and the merged result is bit-identical to an unsharded run.  Where
the cuts land is a pluggable :class:`ShardPlanner` policy — by request
count (:class:`CountPlanner`) or by Figure 5-predicted seconds so
heterogeneous shards finish together (:class:`CostPlanner`).  The same
scheduler runs one model or a whole leaderboard: it interleaves every
job's shards over one shared generation executor and one shared scoring
pool with per-``(model, shard)`` checkpoints, and idle workers steal the
next batch from the job with the longest predicted remaining seconds
(:class:`StealPolicy`), re-predicted from measured durations when a
calibration store is wired in (:mod:`repro.evalcluster.calibration`).

Typical use::

    from repro.pipeline import EvaluationPipeline, PipelineCheckpoint
    from repro.llm.interface import GenerationRequest
    from repro.llm.registry import get_model

    pipeline = EvaluationPipeline(
        get_model("gpt-4"),
        executor="cluster",
        max_workers=8,
        checkpoint=PipelineCheckpoint("run.ckpt.jsonl"),
    )
    for record in pipeline.run_iter(
        GenerationRequest(problem=p) for p in dataset
    ):
        print(record.problem_id, record.scores.unit_test)
"""

from repro.pipeline.checkpoint import (
    PipelineCheckpoint,
    model_checkpoint_base,
    shard_checkpoint_path,
)
from repro.pipeline.executors import (
    AsyncExecutor,
    ClusterExecutor,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    close_executor,
    resolve_executor,
)
from repro.pipeline.pipeline import EvaluationPipeline, PreparedBatch
from repro.pipeline.planner import (
    BATCH_BY_NAMES,
    PLANNER_NAMES,
    BatchSizer,
    CostPlanner,
    CountPlanner,
    ShardPlan,
    ShardPlanner,
    resolve_planner,
)
from repro.pipeline.records import EvaluationRecord, ModelEvaluation, merge_evaluations
from repro.pipeline.scheduler import ModelJob, MultiModelScheduler, StealPolicy
from repro.pipeline.stages import (
    AggregateStage,
    ExtractStage,
    GenerateStage,
    PromptStage,
    ScoreStage,
    Stage,
    StageContext,
    WorkItem,
    default_stages,
)

__all__ = [
    "AggregateStage",
    "AsyncExecutor",
    "BATCH_BY_NAMES",
    "BatchSizer",
    "ClusterExecutor",
    "CostPlanner",
    "CountPlanner",
    "EvaluationPipeline",
    "EvaluationRecord",
    "Executor",
    "ExtractStage",
    "GenerateStage",
    "ModelEvaluation",
    "ModelJob",
    "MultiModelScheduler",
    "PLANNER_NAMES",
    "PipelineCheckpoint",
    "PreparedBatch",
    "ProcessExecutor",
    "PromptStage",
    "ScoreStage",
    "SerialExecutor",
    "ShardPlan",
    "ShardPlanner",
    "Stage",
    "StageContext",
    "StealPolicy",
    "ThreadedExecutor",
    "WorkItem",
    "close_executor",
    "default_stages",
    "merge_evaluations",
    "model_checkpoint_base",
    "resolve_executor",
    "resolve_planner",
    "shard_checkpoint_path",
]
