"""Benchmark configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.dataset.schema import Variant
from repro.evalcluster.calibration import (
    DEFAULT_PRIOR_WEIGHT,
    CalibrationStore,
    is_calibration_spec,
)
from repro.pipeline.executors import EXECUTOR_NAMES, GENERATE_EXECUTOR_NAMES, Executor
from repro.pipeline.pipeline import DEFAULT_BATCH_SIZE
from repro.pipeline.planner import BATCH_BY_NAMES, PLANNER_NAMES, ShardPlanner
from repro.scoring.cache import ScoreCache, is_score_cache_spec

__all__ = ["BenchmarkConfig"]


@dataclass(frozen=True)
class BenchmarkConfig:
    """Knobs controlling a benchmark run.

    Attributes
    ----------
    seed:
        Seed forwarded to the simulated models; the dataset has its own seed.
    shots:
        Number of few-shot examples prepended to every prompt (0-3, §4.3).
    samples:
        Samples generated per problem (1 for the zero-shot benchmark,
        more for the multi-sample experiment of §4.2).
    variants:
        Which question variants to evaluate; defaults to all three.
    run_unit_tests:
        Whether to execute the functional unit tests (True for the real
        benchmark; False simulates the cheap text-only scoring of §4.4).
    calibrate:
        Whether to rescale the simulated models so their original-set pass
        counts land on the paper's Table 5 values (recommended).
    max_workers:
        Parallelism of the query module and of the stage executors
        (1 = sequential; results are deterministic either way).  Also the
        concurrency bound of the async backend.
    executor:
        Backend the pipeline's parallelisable stage work runs on:
        ``"serial"``, ``"thread"`` (a persistent ``max_workers`` thread
        pool), ``"cluster"`` (the in-process master/worker
        evaluation-cluster runtime), ``"async"`` (bounded-concurrency
        asyncio with an optional token-bucket ``rate_limit``),
        ``"process"`` (a persistent process pool for CPU-bound scoring)
        or ``"fleet"`` (the cluster protocol over a real socket:
        ``max_workers`` spawned worker *processes* claiming jobs from a
        served store, with ``lease_seconds`` fault tolerance).  An
        already-constructed executor instance is also accepted — e.g. a
        :class:`~repro.evalcluster.fleet.FleetExecutor` attached to an
        externally managed store and worker fleet; instances stay
        caller-owned and are never closed by the run.  Scores are
        identical across backends.
    generate_executor:
        Optional separate backend for the generate stage only — pair
        ``generate_executor="async"`` with ``executor="process"`` to
        overlap remote-endpoint waits with process-parallel scoring.
        ``None`` (default) uses ``executor`` for every stage.  Any of
        ``serial``/``thread``/``cluster``/``async``; ``process`` is
        rejected (models are not picklable contracts).
    lease_seconds:
        Job-lease deadline of the cluster and fleet backends (``None`` =
        no leases): a worker that dies between claim and report gets its
        job re-enqueued once for a surviving worker.
    shards:
        Number of evaluation shards per model.  With ``shards > 1``,
        ``evaluate_model`` runs the model as one job of the
        :class:`~repro.pipeline.scheduler.MultiModelScheduler` — the same
        scheduler ``evaluate_models`` runs a leaderboard through — which
        splits the requests into that many shards (one checkpoint file
        per shard) and streams them so generation of one shard overlaps
        scoring of the previous one.  ScoreCards are identical for every
        shard count.
    shard_by:
        Where the contiguous shard cuts land: ``"count"`` balances shards
        by request count (the default), ``"cost"`` balances them by the
        Figure 5 model's predicted seconds — base execution time plus
        image-pull time with warm registry-cache hits — so heterogeneous
        shards finish together.  The cuts move but the records do not:
        ScoreCards are identical for either policy.
    planner:
        Escape hatch overriding ``shard_by`` with a custom
        :class:`~repro.pipeline.planner.ShardPlanner` instance (anything
        with a ``plan(requests, num_shards) -> ShardPlan`` method that
        returns contiguous plans).
    rate_limit:
        Requests per second granted to the async backend's token bucket
        (``None`` = unthrottled).  The bucket runs on a deterministic
        virtual clock, so simulated endpoints account their throttle time
        without sleeping.
    batch_size:
        Streaming granularity of the pipeline: records are generated,
        scored and checkpointed in batches of this size.  Smaller batches
        checkpoint more often; larger ones amortise stage overhead.
        Batching can never change a score.
    batch_by:
        Where the batch cuts land within a shard: ``"count"`` slices
        fixed-size batches (the default), ``"cost"`` cuts contiguous
        batches of roughly equal *predicted seconds* via
        :class:`~repro.pipeline.planner.BatchSizer` — never more batches
        than the fixed split, and with ``calibration`` set the
        predictions are the calibrated ones, so batch boundaries adapt
        to measured durations.  Records are bit-identical either way.
    steal:
        Accepts only ``True``, and exists only so that configurations
        which spell out ``steal=True`` keep working.  Scheduled runs
        always steal: idle generation workers — and the idle scoring
        consumer — take the next batch from the job with the longest
        predicted remaining seconds.  The static round-robin schedule
        that ``False`` used to select was removed.
    calibration:
        Cost-model calibration: a
        :class:`~repro.evalcluster.calibration.CalibrationStore` instance
        or the path of its JSONL file.  When set, every run feeds its
        measured per-record durations into the store, and the benchmark's
        cost model becomes a
        :class:`~repro.evalcluster.calibration.CalibratedCostModel` that
        blends those observations into its predictions — so a second run
        of the same corpus cuts its shards (``shard_by="cost"``) and
        orders its steals on observed rather than modelled seconds.
        ``None`` disables the loop (pure Figure 5 predictions).
    calibration_prior_weight:
        How many observations the Figure 5 prior is worth in the blend
        (0 trusts the first measurement outright; large values change
        slowly).
    score_cache:
        The content-addressed global score cache: a
        :class:`~repro.scoring.cache.ScoreCache` instance or the path of
        its JSONL file.  When set, every unique (reference, answer) pair
        is scored at most once *across runs* — hits skip scoring entirely,
        misses write back — and all models of a leaderboard share the one
        store.  Scores are bit-identical with the cache on, off, warm or
        cold; only the wall-clock moves.  ``None`` (default) disables it.
    offload_generation:
        Ship each model's whole generate→extract→score chain to the
        executor as picklable :class:`~repro.pipeline.stages.GenerationTask`
        envelopes built from a :class:`~repro.llm.remote.ModelSpec`
        (:meth:`ModelSpec.of` of the resolved model).  With a ``"fleet"``
        executor the workers generate *and* score out of process under
        the store's distributed rate limit — the coordinator only moves
        envelopes.  Records are bit-identical to the parent-generation
        path; requires a picklable model (all simulated registry models
        are) and is incompatible with a separate ``generate_executor``.
    """

    seed: int = 7
    shots: int = 0
    samples: int = 1
    variants: tuple[Variant, ...] = (Variant.ORIGINAL, Variant.SIMPLIFIED, Variant.TRANSLATED)
    run_unit_tests: bool = True
    calibrate: bool = True
    max_workers: int = 1
    executor: str | Executor = "serial"
    generate_executor: str | None = None
    shards: int = 1
    shard_by: str = "count"
    planner: ShardPlanner | None = None
    rate_limit: float | None = None
    lease_seconds: float | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    batch_by: str = "count"
    steal: bool = True
    calibration: CalibrationStore | str | os.PathLike[str] | None = None
    calibration_prior_weight: float = DEFAULT_PRIOR_WEIGHT
    score_cache: ScoreCache | str | os.PathLike[str] | None = None
    offload_generation: bool = False

    def __post_init__(self) -> None:
        if self.shots < 0 or self.shots > 3:
            raise ValueError("shots must be between 0 and 3")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.variants:
            raise ValueError("at least one variant must be selected")
        if isinstance(self.executor, str):
            if self.executor not in EXECUTOR_NAMES:
                raise ValueError(f"executor must be one of {EXECUTOR_NAMES}")
        elif not callable(getattr(self.executor, "map", None)):
            raise ValueError("executor must be a name or expose a map(fn, tasks) method")
        if self.generate_executor is not None and self.generate_executor not in GENERATE_EXECUTOR_NAMES:
            raise ValueError(f"generate_executor must be one of {GENERATE_EXECUTOR_NAMES}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.steal is not True:
            raise ValueError(
                "steal must be True: the static round-robin schedule was removed "
                "and every scheduled run steals work"
            )
        if self.shard_by not in PLANNER_NAMES:
            raise ValueError(f"shard_by must be one of {PLANNER_NAMES}")
        if self.planner is not None and not callable(getattr(self.planner, "plan", None)):
            raise ValueError("planner must expose a plan(requests, num_shards) method")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.lease_seconds is not None and self.lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_by not in BATCH_BY_NAMES:
            raise ValueError(f"batch_by must be one of {BATCH_BY_NAMES}")
        if not is_calibration_spec(self.calibration):
            raise ValueError(
                "calibration must be a CalibrationStore, a JSONL path, or None"
            )
        if self.calibration_prior_weight < 0:
            raise ValueError("calibration_prior_weight must be >= 0")
        if not is_score_cache_spec(self.score_cache):
            raise ValueError("score_cache must be a ScoreCache, a JSONL path, or None")
        if self.offload_generation and self.generate_executor is not None:
            raise ValueError(
                "offload_generation ships the whole generate→extract→score chain "
                "to the (fleet) executor; a separate generate_executor cannot apply"
            )
