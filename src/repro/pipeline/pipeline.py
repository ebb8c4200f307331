"""The staged evaluation pipeline.

:class:`EvaluationPipeline` connects the typed stages of
:mod:`repro.pipeline.stages` and streams per-record results incrementally:
requests are processed in order, in batches, and every finished
:class:`~repro.pipeline.records.EvaluationRecord` is yielded (and
checkpointed) as soon as its batch clears the last stage.  A run that is
interrupted — or deliberately stopped after consuming part of the stream —
resumes from its :class:`~repro.pipeline.checkpoint.PipelineCheckpoint`
without re-querying the model or re-running unit tests for anything
already recorded.

``CloudEvalBenchmark.evaluate_model`` is a thin wrapper over this class;
using the pipeline directly buys streaming, checkpoint/resume and executor
selection without changing a single score.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.llm.interface import GenerationRequest, Model, QueryModule
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.executors import Executor, close_executor, resolve_executor
from repro.pipeline.records import EvaluationRecord, ModelEvaluation
from repro.pipeline.stages import (
    AggregateStage,
    Stage,
    StageContext,
    WorkItem,
    default_stages,
    offload_stages,
)
from repro.scoring.cache import ScoreCache
from repro.scoring.compiled import ReferenceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evalcluster.calibration import CalibrationStore
    from repro.llm.remote import ModelSpec

__all__ = ["EvaluationPipeline", "PreparedBatch"]

#: Records are streamed out (and checkpointed) in batches of this size.
DEFAULT_BATCH_SIZE = 32


#: Batches :meth:`EvaluationPipeline.run_iter` keeps started at once: while
#: the older is finished, the newer already waits on the executor.
IN_FLIGHT = 2


@dataclass
class PreparedBatch:
    """A batch that has cleared the generation-side stages but not scoring.

    The pipeline's two wall-clock sinks are different resources — the
    generation-side stages wait on the model (I/O), the scoring-side
    stages burn CPU — and this split point is what lets the sharded
    scheduler run them concurrently: one thread prepares batch *k+1* while
    another finishes batch *k*.

    A batch from :meth:`EvaluationPipeline.start_batch` is only started:
    ``pending`` then holds what completes its generation-side stages —
    on the offload chain, waiting for the batch's fleet jobs — and
    :meth:`EvaluationPipeline.finish_batch` calls it first.
    """

    requests: list[GenerationRequest]
    cached: dict[int, EvaluationRecord] = field(default_factory=dict)
    todo: list[int] = field(default_factory=list)
    items: list[WorkItem] = field(default_factory=list)
    pending: Callable[[], None] | None = None


class EvaluationPipeline:
    """Evaluate one model's requests through the staged pipeline.

    Parameters
    ----------
    model:
        The model under evaluation (anything implementing the
        :class:`~repro.llm.interface.Model` protocol).
    stages:
        The per-item stage chain; defaults to the paper's
        prompt → generate → extract → score sequence.
    executor:
        Backend for parallelisable stage work: ``"serial"``, ``"thread"``,
        ``"cluster"`` or any :class:`~repro.pipeline.executors.Executor`.
    max_workers:
        Worker count handed to the thread/cluster executor and to the
        query module's request fan-out.
    store:
        Shared :class:`~repro.scoring.compiled.ReferenceStore`; benchmarks
        pass one store so references compile once across models.
    run_unit_tests:
        Forwarded to the score stage.
    score_cache:
        Optional :class:`~repro.scoring.cache.ScoreCache` layered above
        the score stage's in-run memo: content-addressed hits skip
        scoring entirely (resolved in this process, so process pools only
        see misses) and fresh cards are written back once per batch.
        Benchmarks and the multi-model scheduler pass one shared store so
        every model's repeat answers are absorbed by the same cache.
    checkpoint:
        Optional :class:`PipelineCheckpoint` enabling resume; pass the
        same checkpoint (or path) again to continue a partial run.
    batch_size:
        Streaming granularity of :meth:`run_iter` — smaller batches
        checkpoint more often, larger ones amortise stage overhead.
    model_spec:
        Optional :class:`~repro.llm.remote.ModelSpec` naming the same
        model: switches the default chain to generation *offload* — the
        whole generate→extract→score chain ships to the executor as
        picklable tasks (see :class:`~repro.pipeline.stages.FleetGenerationStage`),
        so a fleet backend generates and scores on its workers under the
        store's distributed rate limit.  Ignored when explicit ``stages``
        are passed.
    calibration:
        Optional :class:`~repro.evalcluster.calibration.CalibrationStore`:
        every freshly evaluated record's measured duration (generation +
        scoring seconds) is fed into it, closing the loop from real runs
        back to the cost model's per-problem predictions.  Records served
        from a checkpoint were observed when first computed and are not
        re-observed.
    """

    def __init__(
        self,
        model: Model,
        *,
        stages: Sequence[Stage] | None = None,
        executor: str | Executor = "serial",
        max_workers: int = 1,
        store: ReferenceStore | None = None,
        run_unit_tests: bool = True,
        checkpoint: PipelineCheckpoint | str | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        rate_limit: float | None = None,
        generate_executor: str | Executor | None = None,
        lease_seconds: float | None = None,
        calibration: "CalibrationStore | None" = None,
        score_cache: ScoreCache | None = None,
        model_spec: "ModelSpec | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if model_spec is not None and model_spec.name != model.name:
            raise ValueError(
                f"model_spec names {model_spec.name!r} but the pipeline's model "
                f"is {model.name!r}"
            )
        self.model = model
        self.model_spec = model_spec
        self.query = QueryModule(model, max_workers=max(1, max_workers))
        if stages is not None:
            self.stages: list[Stage] = list(stages)
        elif model_spec is not None:
            # Generation offload: the whole generate→extract→score chain
            # ships to the executor as picklable GenerationTasks, built
            # from the spec instead of the live model.
            self.stages = offload_stages(
                model_spec, store=store, run_unit_tests=run_unit_tests
            )
        else:
            self.stages = default_stages(
                self.query,
                store=store,
                run_unit_tests=run_unit_tests,
                score_cache=score_cache,
            )
        self.aggregate = AggregateStage()
        # An executor resolved here from a spec string is owned by (and torn
        # down with) this pipeline; an instance passed in is the caller's.
        self._owns_executor = isinstance(executor, str)
        self._owns_generate_executor = isinstance(generate_executor, str)
        self.context = StageContext(
            executor=resolve_executor(executor, max_workers, rate_limit, lease_seconds),
            generate_executor=(
                resolve_executor(generate_executor, max_workers, rate_limit, lease_seconds)
                if generate_executor is not None
                else None
            ),
        )
        self.checkpoint = (
            PipelineCheckpoint(checkpoint) if isinstance(checkpoint, str) else checkpoint
        )
        self.batch_size = batch_size
        self.calibration = calibration

    # ------------------------------------------------------------------
    # Streaming evaluation
    # ------------------------------------------------------------------
    def run_iter(self, requests: Iterable[GenerationRequest]) -> Iterator[EvaluationRecord]:
        """Stream finished records in request order, batch by batch.

        Requests whose ``(model, problem, shots, sample)`` identity is
        already in the checkpoint are served from it without touching the
        model or the scorer; everything else flows through the stages and
        is checkpointed the moment its record exists.

        On a chain with a submitting stage (the offload chain) up to
        :data:`IN_FLIGHT` batches are started at once and the older is
        finished first, which keeps two batches on the fleet: a worker
        that finishes batch *k* claims batch *k+1* at once.  When the
        consumer closes the stream early, a batch already on the executor
        is still finished and checkpointed, but not yielded.  Any other
        chain has nothing to start ahead, so it takes one batch at a time
        and reads its requests, calls its model and writes its checkpoint
        in the order of a plain batch loop.
        """

        depth = IN_FLIGHT if self._starts_early() else 1
        in_flight: deque[PreparedBatch] = deque()
        try:
            for batch in _batches(requests, self.batch_size):
                in_flight.append(self.start_batch(batch))
                if len(in_flight) == depth:
                    yield from self.finish_batch(in_flight.popleft())
            while in_flight:
                yield from self.finish_batch(in_flight.popleft())
        except GeneratorExit:
            # Its jobs must not be orphaned on the executor, and a resume
            # must not query it again.
            for prepared in in_flight:
                for _ in self.finish_batch(prepared):
                    pass
            raise

    # -- the two halves of a batch (the sharded scheduler's overlap seam) --
    def _front_back_stages(self) -> tuple[list[Stage], list[Stage]]:
        """Split the chain at the score stage: I/O-bound front, CPU-bound back."""

        for position, stage in enumerate(self.stages):
            if getattr(stage, "name", "") == "score":
                return list(self.stages[:position]), list(self.stages[position:])
        return list(self.stages), []

    def _starts_early(self) -> bool:
        """Whether a front stage hands its batch to the executor and
        returns (``submit``, the fleet offload stage) — the only work
        :meth:`start_batch` does ahead of finishing."""

        front, _ = self._front_back_stages()
        return any(hasattr(stage, "submit") for stage in front)

    def start_batch(self, requests: list[GenerationRequest]) -> PreparedBatch:
        """Start a batch: the first half of :meth:`prepare_batch`.

        On a chain with a submitting stage this serves checkpoint hits
        and runs the front stages for the rest, up to and including that
        stage, which hands the batch to the executor and returns — so the
        executor works on it while the caller finishes an older batch.  A
        chain without one does no work here: the whole batch runs when it
        is finished.
        """

        prepared = PreparedBatch(requests=list(requests))
        if self._starts_early():
            prepared.pending = self._start(prepared)
        else:
            prepared.pending = lambda: self._start(prepared)()
        return prepared

    def prepare_batch(self, requests: list[GenerationRequest]) -> PreparedBatch:
        """Serve what the checkpoint has and run the generation-side stages
        (everything before scoring) for the rest: :meth:`start_batch`,
        then wait for what it started."""

        return self._resolve(self.start_batch(requests))

    def _resolve(self, prepared: PreparedBatch) -> PreparedBatch:
        if prepared.pending is not None:
            pending, prepared.pending = prepared.pending, None
            pending()
        return prepared

    def _start(self, prepared: PreparedBatch) -> Callable[[], None]:
        """Serve checkpoint hits and run the front stages up to and
        including the first submitting one; return what completes them."""

        for index, request in enumerate(prepared.requests):
            record = self._cached_record(request)
            if record is not None:
                prepared.cached[index] = record
            else:
                prepared.todo.append(index)
        if not prepared.todo:
            return lambda: None
        front, _ = self._front_back_stages()
        items = [WorkItem(request=prepared.requests[index]) for index in prepared.todo]
        start = time.perf_counter()
        for position, stage in enumerate(front):
            if hasattr(stage, "submit"):
                completion = stage.submit(items, self.context)
                return partial(self._complete, prepared, completion, front[position + 1 :], start)
            items = stage.process(items, self.context)
        return partial(self._complete, prepared, lambda: items, [], start)

    def _complete(
        self,
        prepared: PreparedBatch,
        completion: Callable[[], list[WorkItem]],
        rest: list[Stage],
        start: float,
    ) -> None:
        items = completion()
        for stage in rest:
            items = stage.process(items, self.context)
        # The generation-side stages run (and with the async backend,
        # overlap) as one batch, so the batch's wall-clock — from its start
        # to here — is shared evenly across its items: the per-request view
        # of a cost the endpoint only exposes per batch.  An item that
        # already carries a measurement (the fleet offload stage times each
        # generation where it ran) keeps its own truth.
        elapsed = (time.perf_counter() - start) / max(1, len(items))
        for item in items:
            if item.generate_seconds == 0.0:
                item.generate_seconds = elapsed
        prepared.items = items

    def finish_batch(self, prepared: PreparedBatch) -> Iterator[EvaluationRecord]:
        """Run the scoring-side stages, checkpoint, and yield in request order.

        A batch that is only started is first resolved: its submitted
        work is waited for and the front stages after it run.
        """

        self._resolve(prepared)
        fresh: dict[int, EvaluationRecord] = {}
        if prepared.items:
            _, back = self._front_back_stages()
            items = prepared.items
            for stage in back:
                items = stage.process(items, self.context)
            for index, item in zip(prepared.todo, items):
                fresh[index] = item.to_record()

        # Checkpoint the whole batch before yielding anything: the work is
        # done, and it must survive even when the consumer abandons the
        # stream mid-batch.  Failed generations are NOT checkpointed — a
        # captured endpoint error is transient, and a resume must retry it
        # rather than serve the zero-score record forever.
        finished = [record for record in fresh.values() if not record.error]
        if self.checkpoint is not None:
            self.checkpoint.put_batch(finished)
        if self.calibration is not None and finished:
            # Close the measure-then-model loop: every fresh, successful
            # record contributes its measured duration to the store the
            # calibrated cost model predicts from (one durable append per
            # batch, like the checkpoint).
            # The model name rides along so a per_model store can fold the
            # scoped EWMA too; single-key stores ignore it.
            self.calibration.observe_batch(
                (record.problem_id, record.variant, record.measured_seconds, record.model_name)
                for record in finished
            )
        for index in range(len(prepared.requests)):
            yield prepared.cached[index] if index in prepared.cached else fresh[index]

    def _cached_record(self, request: GenerationRequest) -> EvaluationRecord | None:
        if self.checkpoint is None:
            return None
        key = (self.model.name, request.problem.problem_id, request.shots, request.sample_index)
        return self.checkpoint.get(key)

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def run(self, requests: Iterable[GenerationRequest]) -> ModelEvaluation:
        """Evaluate every request and aggregate into a :class:`ModelEvaluation`."""

        records = list(self.run_iter(requests))
        return self.aggregate.finalize(self.model.name, records)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release pooled resources: the query module's thread pool and —
        when this pipeline resolved it from a spec string — the executor's
        pool.  The pipeline stays usable; pools are rebuilt on demand."""

        self.query.close()
        if self._owns_executor:
            close_executor(self.context.executor)
        if self._owns_generate_executor and self.context.generate_executor is not None:
            close_executor(self.context.generate_executor)

    def __enter__(self) -> "EvaluationPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _batches(requests: Iterable[GenerationRequest], size: int) -> Iterator[list[GenerationRequest]]:
    """Consecutive batches of ``size`` requests, read as they are needed."""

    iterator = iter(requests)
    while batch := list(islice(iterator, size)):
        yield batch
