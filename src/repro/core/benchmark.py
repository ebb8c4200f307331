"""The CloudEval-YAML benchmark driver.

``CloudEvalBenchmark`` is a thin convenience layer over the staged
evaluation pipeline (:mod:`repro.pipeline`): for every requested model it
builds the generation requests, assembles an
:class:`~repro.pipeline.pipeline.EvaluationPipeline` (prompt → generate →
extract → score) and aggregates the streamed records into per-model and
per-benchmark summaries that the analysis layer turns into the paper's
tables and figures.  ``evaluate_models`` runs the whole leaderboard
through the :class:`~repro.pipeline.scheduler.MultiModelScheduler` —
every model's shards interleaved over one shared generation executor and
one shared scoring pool — and is bit-identical to sequential
``evaluate_model`` calls.  The ScoreCard output is unchanged from the
pre-pipeline driver.

:class:`EvaluationRecord` and :class:`ModelEvaluation` live in
:mod:`repro.pipeline.records` and are re-exported here for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import os

from repro.core.config import BenchmarkConfig
from repro.dataset.problem import Problem, ProblemSet
from repro.dataset.schema import Variant
from repro.evalcluster.calibration import (
    CalibratedCostModel,
    CalibrationStore,
    resolve_calibration,
)
from repro.evalcluster.cost import CostModel
from repro.llm.interface import GenerationRequest, Model
from repro.llm.registry import ENGLISH_ONLY_MODELS, available_models, calibrate_models, get_model
from repro.llm.remote import ModelSpec
from repro.llm.simulated import SimulatedModel
from repro.pipeline.checkpoint import PipelineCheckpoint, model_checkpoint_base
from repro.pipeline.pipeline import EvaluationPipeline
from repro.pipeline.planner import BatchSizer, ShardPlanner, resolve_planner
from repro.pipeline.records import EvaluationRecord, ModelEvaluation
from repro.pipeline.scheduler import ModelJob, MultiModelScheduler
from repro.scoring.cache import ScoreCache, resolve_score_cache
from repro.scoring.compiled import ReferenceStore

__all__ = ["EvaluationRecord", "ModelEvaluation", "BenchmarkResult", "CloudEvalBenchmark"]


@dataclass
class BenchmarkResult:
    """Results of evaluating several models on the same dataset."""

    evaluations: dict[str, ModelEvaluation] = field(default_factory=dict)

    def models(self) -> list[str]:
        return list(self.evaluations)

    def __getitem__(self, model_name: str) -> ModelEvaluation:
        return self.evaluations[model_name]

    def leaderboard(self) -> list[tuple[str, dict[str, float]]]:
        """(model, mean scores) rows sorted by descending unit-test score.

        Ties break deterministically on the model name, so a leaderboard
        rendered from the same evaluations is stable across runs and
        across the sequential/interleaved evaluation paths.
        """

        rows = [(name, evaluation.mean_scores()) for name, evaluation in self.evaluations.items()]
        return sorted(rows, key=lambda row: (-row[1]["unit_test"], row[0]))

    def all_records(self) -> list[EvaluationRecord]:
        return [record for evaluation in self.evaluations.values() for record in evaluation.records]


class CloudEvalBenchmark:
    """End-to-end benchmark runner over a :class:`ProblemSet`."""

    def __init__(self, dataset: ProblemSet, config: BenchmarkConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config or BenchmarkConfig()
        # Compiled references are shared across every model evaluated by
        # this benchmark: each problem's reference is parsed exactly once.
        self._references = ReferenceStore()
        # One calibration store per benchmark: every run's measured
        # durations accumulate in it, and every cost model predicts from it.
        self._calibration = resolve_calibration(self.config.calibration)
        # One score cache per benchmark: every model's pipelines look up and
        # write back through the same content-addressed store.
        self._score_cache = resolve_score_cache(self.config.score_cache)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def calibration_store(self) -> CalibrationStore | None:
        """The store measured durations flow into (None when disabled)."""

        return self._calibration

    def score_cache(self) -> ScoreCache | None:
        """The shared content-addressed score cache (None when disabled)."""

        return self._score_cache

    def cost_model(self) -> CostModel:
        """The Figure 5 / Table 3 cost model over this benchmark's dataset.

        With ``config.calibration`` set this is a
        :class:`~repro.evalcluster.calibration.CalibratedCostModel` whose
        predictions blend the store's observed durations toward the
        Figure 5 prior — the planner and the stealing scheduler then cut
        and steal on what previous runs actually measured.
        """

        if self._calibration is not None:
            return CalibratedCostModel(
                self.dataset,
                store=self._calibration,
                prior_weight=self.config.calibration_prior_weight,
            )
        return CostModel(self.dataset)

    def planner(self) -> ShardPlanner:
        """The shard planner the configuration selects.

        An explicit ``config.planner`` wins; otherwise ``shard_by``
        chooses count balance or predicted-cost balance seeded with this
        benchmark's cost model.
        """

        return resolve_planner(
            self.config.planner, self.config.shard_by, cost_model=self.cost_model()
        )

    def batch_sizer(self) -> BatchSizer | None:
        """The calibration-aware batch sizer, or None under fixed counts.

        With ``config.batch_by == "cost"`` the scheduler's batch cuts
        land on roughly equal *predicted seconds* (the calibrated
        predictions when ``config.calibration`` is set) instead of equal
        counts — same records, steadier progress ticks.
        """

        if self.config.batch_by != "cost":
            return None
        return BatchSizer(cost_model=self.cost_model(), batch_size=self.config.batch_size)

    # ------------------------------------------------------------------
    # Model resolution
    # ------------------------------------------------------------------
    def _resolve_model(self, model: Model | str) -> Model:
        resolved = get_model(model, seed=self.config.seed) if isinstance(model, str) else model
        if self.config.calibrate and isinstance(resolved, SimulatedModel):
            resolved = calibrate_models([resolved], self.dataset)[0]
        return resolved

    def _model_spec(self, resolved: Model) -> "ModelSpec | None":
        """The offload envelope for ``resolved``, or None when offload is off.

        With ``config.offload_generation`` every pipeline ships the whole
        generate→extract→score chain to the executor as picklable tasks
        built from this :class:`~repro.llm.remote.ModelSpec` — fleet
        workers then reconstruct the model out of process, pacing
        themselves through the store's distributed token bucket when
        ``config.rate_limit`` is set.
        """

        if not self.config.offload_generation:
            return None
        return ModelSpec.of(resolved)

    def _problems(self, variants: Sequence[Variant] | None = None) -> list[Problem]:
        selected = tuple(variants) if variants is not None else self.config.variants
        return [p for p in self.dataset if p.variant in selected]

    # ------------------------------------------------------------------
    # Pipeline assembly
    # ------------------------------------------------------------------
    def requests(
        self,
        model: Model | str,
        problems: Iterable[Problem] | None = None,
        shots: int | None = None,
        samples: int | None = None,
    ) -> tuple[Model, list[GenerationRequest]]:
        """Resolve the model and build its generation requests."""

        resolved = self._resolve_model(model)
        shots = self.config.shots if shots is None else shots
        samples = self.config.samples if samples is None else samples
        problem_list = list(problems) if problems is not None else self._problems()

        # English-only models skip translated questions, as in the paper.
        if resolved.name in ENGLISH_ONLY_MODELS:
            problem_list = [p for p in problem_list if p.variant is not Variant.TRANSLATED]

        requests = [
            GenerationRequest(problem=problem, shots=shots, sample_index=sample)
            for problem in problem_list
            for sample in range(samples)
        ]
        return resolved, requests

    def pipeline(
        self,
        model: Model,
        checkpoint: PipelineCheckpoint | str | None = None,
    ) -> EvaluationPipeline:
        """An evaluation pipeline for ``model`` wired to this benchmark's
        configuration (executor, worker count, unit tests, shared references)."""

        return EvaluationPipeline(
            model,
            executor=self.config.executor,
            generate_executor=self.config.generate_executor,
            max_workers=self.config.max_workers,
            rate_limit=self.config.rate_limit,
            lease_seconds=self.config.lease_seconds,
            store=self._references,
            run_unit_tests=self.config.run_unit_tests,
            checkpoint=checkpoint,
            batch_size=self.config.batch_size,
            calibration=self._calibration,
            score_cache=self._score_cache,
            model_spec=self._model_spec(model),
        )

    def _scheduler(self, jobs: Sequence[ModelJob]) -> MultiModelScheduler:
        """A scheduler over ``jobs`` wired to this benchmark's configuration
        (shards, planner, executors, batch cuts, cost model, shared stores)."""

        return MultiModelScheduler(
            jobs,
            shards=self.config.shards,
            planner=self.planner(),
            executor=self.config.executor,
            generate_executor=self.config.generate_executor,
            max_workers=self.config.max_workers,
            rate_limit=self.config.rate_limit,
            lease_seconds=self.config.lease_seconds,
            store=self._references,
            run_unit_tests=self.config.run_unit_tests,
            batch_size=self.config.batch_size,
            cost_model=self.cost_model(),
            calibration=self._calibration,
            score_cache=self._score_cache,
            batch_sizer=self.batch_sizer(),
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_model(
        self,
        model: Model | str,
        problems: Iterable[Problem] | None = None,
        shots: int | None = None,
        samples: int | None = None,
        checkpoint: PipelineCheckpoint | str | None = None,
    ) -> ModelEvaluation:
        """Evaluate one model and return its scored records.

        With ``config.shards > 1`` the run goes through the
        :class:`~repro.pipeline.scheduler.MultiModelScheduler` as a single
        job: the requests are split across that many overlapped shards,
        and ``checkpoint``, if given, must then be a base path — each
        shard keeps its own file (``<base>.shard-ii-of-nn``).  The records
        are identical to an unsharded run either way.
        """

        resolved, requests = self.requests(model, problems=problems, shots=shots, samples=samples)
        if self.config.shards > 1:
            job = ModelJob(
                resolved, requests, checkpoint=checkpoint, model_spec=self._model_spec(resolved)
            )
            with self._scheduler([job]) as scheduler:
                return scheduler.run()[resolved.name]
        pipeline = self.pipeline(resolved, checkpoint=checkpoint)
        try:
            return pipeline.run(requests)
        finally:
            pipeline.close()

    def evaluate_models(
        self,
        models: Sequence[Model | str] | None = None,
        problems: Iterable[Problem] | None = None,
        shots: int | None = None,
        samples: int | None = None,
        checkpoint: str | os.PathLike[str] | None = None,
    ) -> BenchmarkResult:
        """Evaluate several models (default: all twelve from the registry).

        The whole leaderboard runs through one
        :class:`~repro.pipeline.scheduler.MultiModelScheduler`: every
        model's planned shards interleave over one shared generation
        executor and one shared scoring pool, so the endpoint and the CPU
        stay busy simultaneously instead of one model at a time, and idle
        capacity steals batches from the model with the longest predicted
        remaining seconds.  Each ``(model, shard)`` pair keeps its own
        checkpoint file derived from the ``checkpoint`` base path, making
        a killed leaderboard run resumable.  The per-model evaluations are
        bit-identical to sequential :meth:`evaluate_model` calls for every
        executor backend and every planner.
        """

        names = list(models) if models is not None else available_models()
        problem_list = list(problems) if problems is not None else None
        jobs: list[ModelJob] = []
        scheduled: set[str] = set()
        for model in names:
            resolved, requests = self.requests(
                model, problems=problem_list, shots=shots, samples=samples
            )
            if resolved.name in scheduled:
                # Evaluation is deterministic, so a repeated model would
                # reproduce the same records; schedule it once (the
                # pre-scheduler driver evaluated it twice and kept one).
                continue
            scheduled.add(resolved.name)
            base = (
                model_checkpoint_base(checkpoint, resolved.name)
                if checkpoint is not None
                else None
            )
            jobs.append(
                ModelJob(
                    resolved,
                    requests,
                    checkpoint=base,
                    model_spec=self._model_spec(resolved),
                )
            )
        with self._scheduler(jobs) as scheduler:
            return BenchmarkResult(evaluations=scheduler.run())
