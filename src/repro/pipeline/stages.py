"""Typed, pluggable stages of the evaluation pipeline.

The paper's system is a pipeline — query module, post-processing,
multi-perspective scoring, evaluation cluster — and each of those steps is
one explicit stage here:

``PromptStage`` → ``GenerateStage`` → ``ExtractStage`` → ``ScoreStage``
→ ``AggregateStage``

A stage transforms a batch of :class:`WorkItem` records and returns the
(usually same) batch; the :class:`~repro.pipeline.pipeline.EvaluationPipeline`
threads batches through the chain and hands parallelisable work to the
configured :class:`~repro.pipeline.executors.Executor`.  Custom stages —
response caching, answer repair, safety filters — implement the same
two-method interface and slot anywhere into the chain.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Executor as FuturesExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, runtime_checkable

from repro.dataset.problem import Problem
from repro.llm.interface import GenerationRequest, GenerationResult, QueryModule
from repro.pipeline.executors import AsyncExecutor, DegradedResult, Executor, SerialExecutor
from repro.pipeline.records import EvaluationRecord, ModelEvaluation
from repro.postprocess import extract_yaml
from repro.scoring.aggregate import ScoreCard
from repro.scoring.cache import ScoreCache
from repro.scoring.compiled import (
    CompiledReference,
    ReferenceStore,
    ScoreTask,
    answer_digest,
    reference_digest,
    run_score_task,
    score_extracted,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports us)
    from repro.llm.interface import Model
    from repro.llm.remote import ModelSpec

__all__ = [
    "WorkItem",
    "StageContext",
    "Stage",
    "PromptStage",
    "GenerateStage",
    "ExtractStage",
    "ScoreStage",
    "AggregateStage",
    "FleetGenerationStage",
    "GenerationOutcome",
    "GenerationTask",
    "default_stages",
    "offload_stages",
    "run_generation_task",
    "run_generation_tasks",
    "run_timed_score_task",
]


@dataclass
class WorkItem:
    """One unit of evaluation work flowing through the stage chain.

    Stages fill the fields left to right; a fully processed item carries
    everything needed to emit an :class:`EvaluationRecord`.
    """

    request: GenerationRequest
    model_name: str = ""
    prompt: str = ""
    response: str = ""
    error: str = ""
    extracted: str | None = None
    scores: ScoreCard | None = None
    generate_seconds: float = 0.0
    score_seconds: float = 0.0

    def to_record(self) -> EvaluationRecord:
        """Materialise the finished item as an evaluation record."""

        if self.scores is None:
            raise ValueError(f"item for {self.request.problem.problem_id!r} has not been scored")
        problem = self.request.problem
        return EvaluationRecord(
            model_name=self.model_name,
            problem_id=problem.problem_id,
            base_id=problem.base_id,
            category=problem.category.value,
            application=problem.application,
            variant=problem.variant.value,
            has_code_context=problem.has_code_context,
            solution_lines=problem.solution_lines(),
            question_tokens=problem.question_tokens(),
            shots=self.request.shots,
            sample_index=self.request.sample_index,
            scores=self.scores,
            raw_response=self.response,
            error=self.error,
            generate_seconds=self.generate_seconds,
            score_seconds=self.score_seconds,
        )


def _mark_degraded(item: WorkItem, reason: str) -> None:
    """Score ``item`` as a slot the infrastructure lost.

    An abandoned or quarantined fleet job gets an all-zero card whose
    ``failure_message`` is the executor's reason, and an ``error`` that
    excludes it from the metric means (unless generation already failed).
    """

    item.scores = ScoreCard(
        problem_id=item.request.problem.problem_id,
        bleu=0.0,
        edit_distance=0.0,
        exact_match=0.0,
        kv_exact=0.0,
        kv_wildcard=0.0,
        unit_test=0.0,
        extracted_yaml=item.extracted,
        failure_message=reason,
    )
    item.score_seconds = 0.0
    if not item.error:
        item.error = f"degraded: {reason}"


@dataclass(frozen=True)
class StageContext:
    """Run-scoped services a stage may use.

    ``executor`` backs parallelisable stage work generally (in practice:
    scoring).  ``generate_executor``, when set, overrides it for the
    generate stage only — the two wall-clock sinks are different resources
    (model querying waits on I/O, scoring burns CPU), so a run may pair an
    async generation backend with a process-pool scoring backend.
    """

    executor: Executor = field(default_factory=SerialExecutor)
    generate_executor: Executor | None = None


@runtime_checkable
class Stage(Protocol):
    """A typed pipeline stage: a name plus a batch transformation."""

    name: str

    def process(self, items: list[WorkItem], context: StageContext) -> list[WorkItem]:  # pragma: no cover
        ...


class PromptStage:
    """Build the full prompt text for every request (§3.1 / Appendix B).

    The simulated models consume the problem directly, but the prompt is
    what a real endpoint would receive — materialising it per item keeps
    the pipeline inspectable (and checkpointable) at the exact boundary
    where a remote API call would happen.
    """

    name = "prompt"

    def process(self, items: list[WorkItem], context: StageContext) -> list[WorkItem]:
        for item in items:
            item.prompt = item.request.prompt()
        return items


class GenerateStage:
    """Query the model for every item through the universal query module.

    Per-request failures are captured into the item's ``error`` field (the
    response stays empty and scores zero) instead of aborting the batch.
    With an :class:`~repro.pipeline.executors.AsyncExecutor` configured,
    the whole batch goes through ``query_batch_async`` — bounded
    concurrency plus the executor's token bucket — so an
    :class:`~repro.llm.interface.AsyncModel`'s request latencies overlap;
    results are order-identical to the synchronous path either way.
    """

    name = "generate"

    def __init__(self, query: QueryModule) -> None:
        self.query = query

    def process(self, items: list[WorkItem], context: StageContext) -> list[WorkItem]:
        requests = [item.request for item in items]
        executor = context.generate_executor or context.executor
        if isinstance(executor, AsyncExecutor):
            results = executor.run(
                self.query.query_batch_async(
                    requests,
                    max_concurrency=executor.max_concurrency,
                    limiter=executor.limiter,
                )
            )
        elif context.generate_executor is not None:
            # An explicitly chosen generation backend is honored: requests
            # fan out over it with per-request error capture, results in
            # order.  (Process pools are rejected at config time — models
            # are not picklable contracts.)
            results = executor.map(self.query._query_captured, requests)
        else:
            results = self.query.query_batch(requests)
        for item, result in zip(items, results):
            item.model_name = result.model_name
            item.response = result.response
            item.error = result.error
        return items


class ExtractStage:
    """Post-process each raw response into its clean YAML payload (§3.2)."""

    name = "extract"

    def process(self, items: list[WorkItem], context: StageContext) -> list[WorkItem]:
        for item in items:
            item.extracted = extract_yaml(item.response)
        return items


def run_timed_score_task(task: ScoreTask) -> tuple[ScoreCard, float]:
    """Run a picklable score envelope and measure its wall-clock seconds.

    Module-level so process-pool executors can pickle it; the measurement
    happens inside the worker, so it captures the true scoring cost (not
    queueing or IPC time).
    """

    start = time.perf_counter()
    card = run_score_task(task)
    return card, time.perf_counter() - start


class ScoreStage:
    """Score each extracted answer with all six metrics (§3.2, §3.3).

    Identical ``(problem_id, extracted)`` pairs are scored once per run —
    multi-sample sweeps and different models frequently repeat answers —
    and the memo persists across batches, so incremental streaming pays
    the same total cost as one big :func:`~repro.scoring.compiled.score_batch`
    call.  Unique pairs are fanned out over the run's executor; every
    metric is a pure function, so the executor cannot change a score.

    Every freshly scored pair is timed where it runs (in-process or inside
    a pool worker) and the measured seconds are memoised next to the card:
    a record whose answer deduplicated onto an earlier identical one
    carries the seconds the actual scoring took, which is the ground truth
    the calibration loop wants (what scoring this answer *costs*, not the
    near-zero memo lookup).

    With a :class:`~repro.scoring.cache.ScoreCache` wired in, a second,
    *persistent* layer sits above the in-run memo: a unique pair whose
    content-addressed key — (reference digest, extracted-answer digest,
    scorer version) — is already in the cache skips scoring entirely, and
    every freshly scored pair is written back once per batch.  The
    reference digest comes from
    :func:`~repro.scoring.compiled.reference_digest`, which hashes the
    problem without compiling it, so a hit never compiles a reference.
    Hits are resolved here in the parent process, so a process-pool
    executor only ever ships miss envelopes; a cache-served pair reports
    zero scoring seconds (the truth of this run — the cost was paid by
    whichever run populated the cache).

    Only the misses need a compiled reference.  The in-process path gets
    it from the store, compiling each distinct reference text once per
    process.  The picklable path ships whatever the store already holds
    and otherwise leaves the compile to the worker.
    """

    name = "score"

    def __init__(
        self,
        store: ReferenceStore | None = None,
        run_unit_tests: bool = True,
        cache: ScoreCache | None = None,
    ) -> None:
        self.store = store or ReferenceStore()
        self.run_unit_tests = run_unit_tests
        self.cache = cache
        self._memo: dict[tuple[str, str], tuple[ScoreCard, float]] = {}

    def _score_one(self, task: tuple[CompiledReference, str]) -> tuple[ScoreCard, float]:
        compiled, extracted = task
        start = time.perf_counter()
        card = score_extracted(compiled, extracted, self.run_unit_tests)
        return card, time.perf_counter() - start

    def process(self, items: list[WorkItem], context: StageContext) -> list[WorkItem]:
        pending: dict[tuple[str, str], tuple[Problem, str]] = {}
        degraded: dict[tuple[str, str], str] = {}
        for item in items:
            extracted = item.extracted if item.extracted is not None else extract_yaml(item.response)
            item.extracted = extracted
            key = (item.request.problem.problem_id, extracted)
            if key not in self._memo and key not in pending:
                if self.cache is not None:
                    card = self.cache.get(
                        reference_digest(item.request.problem),
                        answer_digest(extracted),
                        self.run_unit_tests,
                        scope=item.model_name,
                    )
                    if card is not None:
                        # Cache-served: this run did no scoring work for the
                        # pair, so it reports zero seconds.
                        self._memo[key] = (card, 0.0)
                        continue
                pending[key] = (item.request.problem, extracted)
        if pending:
            keys = list(pending)
            if getattr(context.executor, "requires_picklable_tasks", False):
                # Process-backed executors get self-contained envelopes: the
                # raw problem pickles small, an already-compiled reference
                # is shipped for free, and a cold one is compiled at most
                # once per worker process.
                envelopes = [
                    ScoreTask(
                        problem=problem,
                        extracted=extracted,
                        run_unit_tests=self.run_unit_tests,
                        compiled=self.store.peek(problem),
                    )
                    for problem, extracted in (pending[key] for key in keys)
                ]
                timed = context.executor.map(run_timed_score_task, envelopes)
            else:
                tasks = [
                    (self.store.get(problem), extracted)
                    for problem, extracted in (pending[key] for key in keys)
                ]
                timed = context.executor.map(self._score_one, tasks)
            for key, result in zip(keys, timed):
                if isinstance(result, DegradedResult):
                    # The infrastructure lost this slot (an abandoned or
                    # quarantined fleet job).  Batch-local only: no memo
                    # entry and no cache write, so a later batch — or a
                    # healthy rerun — scores the pair for real.
                    degraded[key] = result.reason
                else:
                    self._memo[key] = result
            if self.cache is not None:
                self.cache.put_batch(
                    (
                        reference_digest(problem),
                        answer_digest(extracted),
                        self._memo[key][0],
                        self.run_unit_tests,
                    )
                    for key, (problem, extracted) in pending.items()
                    if key in self._memo
                )
        for item in items:
            key = (item.request.problem.problem_id, item.extracted)
            if key not in self._memo and key in degraded:
                _mark_degraded(item, degraded[key])
                continue
            card, seconds = self._memo[key]
            item.scores = card
            item.score_seconds = seconds
        return items


class AggregateStage:
    """Fold finished records into a :class:`ModelEvaluation` (§3.4 reporting)."""

    name = "aggregate"

    def finalize(self, model_name: str, records: Sequence[EvaluationRecord]) -> ModelEvaluation:
        return ModelEvaluation(model_name=model_name, records=list(records))


def default_stages(
    query: QueryModule,
    *,
    store: ReferenceStore | None = None,
    run_unit_tests: bool = True,
    score_cache: ScoreCache | None = None,
) -> list[Stage]:
    """The paper's stage chain for one model (everything before aggregation)."""

    return [
        PromptStage(),
        GenerateStage(query),
        ExtractStage(),
        ScoreStage(store=store, run_unit_tests=run_unit_tests, cache=score_cache),
    ]


# ---------------------------------------------------------------------------
# Fleet generation offload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationTask:
    """A picklable unit of *end-to-end* evaluation work for fleet workers.

    The whole generate→extract→score chain for one request, shippable
    over the wire: the request and a :class:`~repro.llm.remote.ModelSpec`
    (transport configuration, never a live model object) plus the same
    compiled-reference piggyback :class:`~repro.scoring.compiled.ScoreTask`
    uses.  The worker rebuilds the model once per process from the spec.
    """

    request: GenerationRequest
    spec: "ModelSpec"
    run_unit_tests: bool = True
    compiled: CompiledReference | None = None


@dataclass
class GenerationOutcome:
    """What one :class:`GenerationTask` produced, measured where it ran.

    ``generate_seconds`` is the worker-measured latency of this record's
    one request (pacing wait and endpoint time), and ``score_seconds`` the
    wall seconds its extraction was scored for.  Both feed the pipeline's
    timing fields.  A fleet worker keeps a job's requests in flight
    together, so a job's ``generate_seconds`` overlap and their sum is not
    the worker's throughput (see :func:`run_generation_tasks`).  A model
    exception becomes ``error`` with an empty response, captured by
    :meth:`QueryModule._query_captured`, and the (empty) extraction is
    still scored, exactly as the parent-process path would.
    """

    model_name: str
    response: str
    error: str
    extracted: str
    card: ScoreCard
    generate_seconds: float
    score_seconds: float


#: Per-process model memo for :func:`run_generation_task`, keyed by spec
#: name: pickled spec copies are distinct objects, so the *name* is the
#: one-model-per-process contract — the same role ``_PROCESS_STORE`` plays
#: for compiled references.
_SPEC_MODELS: dict[str, "Model"] = {}
_SPEC_MODELS_LOCK = threading.Lock()


def _generation_model(spec: "ModelSpec") -> "Model":
    """This process's model for ``spec``, built once and reused.

    Inside a fleet worker the model's rate limiter is the *distributed*
    token bucket for the spec's ``limiter_key`` — every worker hitting
    the endpoint debits one server-side balance, so the global limit
    holds across the fleet.  Outside a worker (a process pool, or the
    parent process itself) the spec falls back to a local wall-clock
    bucket.  A worker's concurrent requests may all ask first; the lock
    makes one of them build the model (and its pacer client).
    """

    model = _SPEC_MODELS.get(spec.name)
    if model is not None:
        return model
    with _SPEC_MODELS_LOCK:
        model = _SPEC_MODELS.get(spec.name)
        if model is None:
            from repro.evalcluster.fleet import fleet_pacer

            limiter = None
            if spec.rate_limit is not None:
                limiter = fleet_pacer(spec.limiter_key, spec.rate_limit, spec.burst)
            model = spec.build(limiter=limiter)
            _SPEC_MODELS[spec.name] = model
        return model


def _fire_generate_fault(task: GenerationTask) -> None:
    """Fire the ``worker.generate`` fault site for one record.

    Detail = problem id.  ``kill`` takes the whole worker down mid-job —
    the lease/strike/degradation machinery's hardest case — and ``delay``
    holds back the record's request.
    """

    from repro.evalcluster.fleet import worker_injector

    problem_id = task.request.problem.problem_id
    spec = worker_injector().fire("worker.generate", problem_id)
    if spec is not None and spec.kind == "kill":
        # Die as a crashed generation process would: mid-job, claim
        # registered, strike counted, nothing reported.
        os.kill(os.getpid(), signal.SIGKILL)
    worker_injector().sleep_if_delay(spec, problem_id)


@dataclass(frozen=True)
class _Answer:
    """The request half's output: the captured result and its wall span."""

    result: GenerationResult
    started: float
    finished: float


def _request_generation(task: GenerationTask) -> _Answer:
    """The request half: query the model, capturing a failure as ``error``."""

    query = QueryModule(_generation_model(task.spec))
    started = time.perf_counter()
    result = query._query_captured(task.request)
    return _Answer(result, started, time.perf_counter())


def _score_generation(task: GenerationTask, answer: _Answer) -> GenerationOutcome:
    """The score half: extract the answer and score it against the reference."""

    response = answer.result.response
    extracted = extract_yaml(response)
    compiled = task.compiled
    if compiled is None:
        from repro.scoring.compiled import warm_reference_store

        compiled = warm_reference_store().get(task.request.problem)
    started = time.perf_counter()
    card = score_extracted(compiled, extracted, task.run_unit_tests)
    score_seconds = time.perf_counter() - started
    return GenerationOutcome(
        model_name=task.spec.name,
        response=response,
        error=answer.result.error,
        extracted=extracted,
        card=card,
        generate_seconds=answer.finished - answer.started,
        score_seconds=score_seconds,
    )


def run_generation_task(task: GenerationTask) -> GenerationOutcome:
    """Run one request's full generate→extract→score chain where it lands.

    Module-level and self-contained so fleet workers (and process pools)
    can pickle it by reference.  The request half captures a model
    exception through :meth:`QueryModule._query_captured` —
    ``{type}: {message}``, empty response — and the empty extraction is
    scored like any other, so offloaded records are bit-identical to
    parent-generated ones.

    Fires the ``worker.generate`` fault site (detail = problem id) before
    querying the model.  A fleet worker runs a whole job of these through
    :func:`run_generation_tasks` instead: the same halves, with the
    requests in flight together.
    """

    _fire_generate_fault(task)
    return _score_generation(task, _request_generation(task))


def run_generation_tasks(
    tasks: Sequence[GenerationTask], pool: FuturesExecutor
) -> tuple[list[GenerationOutcome], float]:
    """Run a job of generation tasks with its requests in flight together.

    In task order, each record fires ``worker.generate`` and then hands
    its request half to ``pool``; the answers are then extracted and
    scored in task order on the calling thread, each as soon as it
    arrives.  Outcomes equal ``[run_generation_task(t) for t in tasks]``.
    At most one request per task is in flight, and never more than the
    pool has threads.

    Also returns the wall seconds of the request phase, from the first
    request sent to the last answer received: records ÷ that span is the
    generation throughput the caller achieved, which the overlapping
    per-request ``generate_seconds`` no longer sum to.
    """

    pending = []
    for task in tasks:
        _fire_generate_fault(task)
        pending.append(pool.submit(_request_generation, task))
    answers: list[_Answer] = []
    outcomes: list[GenerationOutcome] = []
    for task, future in zip(tasks, pending):
        answers.append(future.result())
        outcomes.append(_score_generation(task, answers[-1]))
    if not answers:
        return outcomes, 0.0
    span = max(a.finished for a in answers) - min(a.started for a in answers)
    return outcomes, span


class FleetGenerationStage:
    """Offload the whole generate→extract→score chain to the executor.

    One stage replaces ``GenerateStage + ExtractStage + ScoreStage`` when
    generation itself should leave the parent process: each item becomes
    a :class:`GenerationTask` and the executor — in practice a
    :class:`~repro.evalcluster.fleet.FleetExecutor` — maps
    :func:`run_generation_task` over the batch.  The coordinator then
    only moves envelopes; N workers generate *and* score concurrently
    while the distributed token bucket keeps the endpoint's global rate
    limit intact.  Each worker keeps a job's requests in flight together
    and scores the answers in task order
    (:func:`run_generation_tasks`).  Through :meth:`submit` the pipeline
    hands the fleet the next batch before it waits for the current one.

    A :class:`~repro.pipeline.executors.DegradedResult` slot (the fleet
    lost that job beyond recovery) degrades exactly like the score
    stage's contract: a zero :class:`ScoreCard` whose ``failure_message``
    is the infrastructure reason, an ``error``-marked record, nothing
    memoised.

    Trade-offs vs the parent path (same records either way): no
    :class:`~repro.scoring.cache.ScoreCache` layer — workers always score
    — and no cross-item answer dedup; offload pays off when generation
    latency dominates, not when scoring does.
    """

    name = "fleet-generate"

    def __init__(
        self,
        spec: "ModelSpec",
        store: ReferenceStore | None = None,
        run_unit_tests: bool = True,
    ) -> None:
        self.spec = spec
        self.store = store or ReferenceStore()
        self.run_unit_tests = run_unit_tests

    def process(self, items: list[WorkItem], context: StageContext) -> list[WorkItem]:
        return self.submit(items, context)()

    def submit(
        self, items: list[WorkItem], context: StageContext
    ) -> Callable[[], list[WorkItem]]:
        """Hand the batch to the executor and return its completion.

        An executor with ``submit`` (the fleet) starts on the batch now;
        calling the completion waits for it and fills in ``items``.  Any
        other executor does all its work in ``map`` when the completion
        is called, exactly as :meth:`process` always did.
        """

        tasks = [
            GenerationTask(
                request=item.request,
                spec=self.spec,
                run_unit_tests=self.run_unit_tests,
                compiled=self.store.peek(item.request.problem),
            )
            for item in items
        ]
        executor = context.generate_executor or context.executor
        if hasattr(executor, "submit"):
            outcomes = executor.submit(run_generation_task, tasks).result
        else:
            outcomes = partial(executor.map, run_generation_task, tasks)
        return partial(self._complete, items, outcomes)

    def _complete(
        self, items: list[WorkItem], outcomes: Callable[[], list[Any]]
    ) -> list[WorkItem]:
        for item, outcome in zip(items, outcomes()):
            if isinstance(outcome, DegradedResult):
                item.model_name = self.spec.name
                item.extracted = extract_yaml(item.response)
                item.generate_seconds = 0.0
                _mark_degraded(item, outcome.reason)
                continue
            item.model_name = outcome.model_name
            item.response = outcome.response
            item.error = outcome.error
            item.extracted = outcome.extracted
            item.scores = outcome.card
            item.generate_seconds = outcome.generate_seconds
            item.score_seconds = outcome.score_seconds
        return items


def offload_stages(
    spec: "ModelSpec",
    *,
    store: ReferenceStore | None = None,
    run_unit_tests: bool = True,
) -> list[Stage]:
    """The stage chain with generation offloaded to the run's executor."""

    return [
        PromptStage(),
        FleetGenerationStage(spec, store=store, run_unit_tests=run_unit_tests),
    ]
