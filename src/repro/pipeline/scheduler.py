"""The multi-model leaderboard scheduler.

A leaderboard run evaluates many models over the same corpus, and running
them strictly one after another wastes both wall-clock sinks: while model
A's last shard is being scored (CPU), the endpoint sits idle; while model
B's first shard is being generated (I/O), the scoring pool sits idle —
one fill/drain bubble *per model*.  :class:`MultiModelScheduler` removes
all but one of those bubbles: it splits every model's requests into
planned shards (:mod:`repro.pipeline.planner`), cuts the shards into
batch units, and drives them all through **one** shared generation
executor and **one** shared scoring executor, so a leaderboard run
saturates the endpoint and the scoring pool simultaneously.

How the units are *ordered* is work stealing: units live in per-job
deques behind one shared claim point.  Whenever a generation worker — or
the scoring consumer itself — goes idle, it steals the next batch from
the job with the longest **predicted remaining seconds**
(:class:`StealPolicy`), so a straggler model is attacked early and its
bubbles are filled with other models' work.  Predictions come from the
configured :class:`~repro.evalcluster.cost.CostModel`; with a
:class:`~repro.evalcluster.calibration.CalibratedCostModel` they are
*re-predicted as measurements arrive* — the store's version bump
invalidates the remaining-seconds estimates, so the steal order adapts
mid-run to observed rather than modelled durations.  Claims are also
weighted by the *claimant*: with per-worker relative speeds known
(``worker_speeds``, or a fleet backend's heartbeat-observed throughput),
a markedly slow worker takes the cheapest next batch instead of the
straggler's — the critical path stays with fast workers
(:class:`StealPolicy`'s ``slow_worker_threshold``).

Determinism of *results* is preserved: a model's batches are claimed and
released in request order (stealing only reorders *between* models),
every stage is a pure function, and records are folded back per model —
so each model's :class:`~repro.pipeline.records.ModelEvaluation` is
bit-identical to a sequential ``evaluate_model`` run, for every executor
backend and every planner.  Stealing reorders execution, never record
identity.  A single-model sharded run is simply a scheduler with one
:class:`ModelJob`: generation of shard *k+1* overlaps scoring of shard
*k*.

Each ``(model, shard)`` pair keeps its own checkpoint file derived from
the job's base path, so a killed leaderboard run resumes exactly where
every model's every shard stopped.

Under a degraded fleet backend the scheduler still terminates: a batch
whose fleet job was abandoned or quarantined comes back as error-marked
records (:class:`~repro.pipeline.executors.DegradedResult` slots, scores
zeroed and excluded from the means) rather than an exception, those
records are skipped by both the checkpoint and the calibration feed
(``finish_batch`` filters on ``record.error``), and the loss surfaces in
each :class:`~repro.pipeline.records.ModelEvaluation`'s ``coverage`` —
so a chaos run degrades the leaderboard's coverage column, never the
cost model or a resume.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.evalcluster.cost import CostModel
from repro.llm.interface import GenerationRequest, Model
from repro.pipeline.checkpoint import PipelineCheckpoint, shard_checkpoint_path
from repro.pipeline.executors import Executor, close_executor, resolve_executor
from repro.pipeline.pipeline import DEFAULT_BATCH_SIZE, EvaluationPipeline
from repro.pipeline.planner import BatchSizer, CountPlanner, ShardPlan, ShardPlanner
from repro.pipeline.records import EvaluationRecord, ModelEvaluation
from repro.scoring.cache import ScoreCache
from repro.scoring.compiled import ReferenceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evalcluster.calibration import CalibrationStore
    from repro.llm.remote import ModelSpec

__all__ = ["ModelJob", "MultiModelScheduler", "StealPolicy"]

#: A batch unit: the sub-pipeline owning the shard plus the requests of
#: one streaming batch within it.
Unit = tuple[EvaluationPipeline, list[GenerationRequest]]


class _ProducerFailure:
    """An exception captured on the producer thread, re-raised on the consumer."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


@dataclass
class ModelJob:
    """One model's slice of a leaderboard run.

    ``checkpoint`` is the per-job base path; every shard of the job derives
    its own file from it (``<base>.shard-ii-of-nn``).  Jobs in one
    scheduler must have distinct model names — the name keys the results.

    ``model_spec``, when set, offloads this job's whole
    generate→extract→score chain to the run's executor (see
    :class:`~repro.pipeline.stages.FleetGenerationStage`): the spec must
    name the same model.
    """

    model: Model
    requests: list[GenerationRequest] = field(default_factory=list)
    checkpoint: str | os.PathLike[str] | None = None
    model_spec: "ModelSpec | None" = None

    @property
    def name(self) -> str:
        return self.model.name


class StealPolicy:
    """Choose which job an idle worker steals its next batch from.

    The policy is a pure function of the schedule state, which is what
    makes steal order testable and deterministic: given the same remaining
    predictions and the same claim history, every run steals in the same
    sequence.

    The default picks the claimable job with the longest predicted
    remaining seconds — the job most likely to straggle — breaking ties on
    the lowest job index.  Jobs whose generation lock is currently held
    are deprioritised when any free-lock alternative exists: stealing from
    a busy job would serialise behind its in-flight batch instead of
    adding parallelism.

    With heterogeneous workers the *claimant* matters too: remaining
    seconds scale uniformly with the claimer's speed, so the argmax is
    unchanged — but handing the straggler's next batch to a slow worker
    stretches exactly the tail the steal exists to shorten.  A claimant
    whose observed relative speed (fleet throughput, normalised to the
    fleet mean) falls below ``slow_worker_threshold`` therefore takes the
    *cheapest* predicted next batch instead — enough to stay busy without
    camping on the critical path — whenever per-unit predictions are
    available.
    """

    #: Claimants slower than this fraction of the mean worker switch from
    #: longest-remaining to cheapest-next-batch picks.
    slow_worker_threshold = 0.75

    def choose(
        self,
        remaining: Sequence[float],
        claimable: Sequence[bool],
        busy: Sequence[bool] | None = None,
        worker_speed: float = 1.0,
        next_unit_seconds: Sequence[float] | None = None,
    ) -> int | None:
        """The job to claim from next, or None when nothing is claimable."""

        if worker_speed < self.slow_worker_threshold and next_unit_seconds is not None:
            def best(candidates: list[int]) -> int | None:
                if not candidates:
                    return None
                return min(candidates, key=lambda j: (next_unit_seconds[j], j))
        else:
            def best(candidates: list[int]) -> int | None:
                if not candidates:
                    return None
                return max(candidates, key=lambda j: (remaining[j], -j))

        candidates = [j for j in range(len(claimable)) if claimable[j]]
        if busy is not None:
            free = [j for j in candidates if not busy[j]]
            chosen = best(free)
            if chosen is not None:
                return chosen
        return best(candidates)

    def choose_for_consumer(
        self,
        next_unit_seconds: Sequence[float],
        claimable: Sequence[bool],
    ) -> int | None:
        """The job the *scoring consumer* should steal from, or None.

        The consumer's goal is the opposite of a generation worker's: it
        is the only scoring thread, so every second it spends preparing a
        batch is a second the CPU pipeline stalls.  It therefore grabs the
        *cheapest* predicted next batch — just enough work to stay busy —
        and leaves the stragglers to the dedicated workers.
        """

        candidates = [j for j in range(len(claimable)) if claimable[j]]
        if not candidates:
            return None
        return min(candidates, key=lambda j: (next_unit_seconds[j], j))


class MultiModelScheduler:
    """Interleave planned shards of several models over shared executors.

    Parameters mirror :class:`~repro.pipeline.pipeline.EvaluationPipeline`
    with these generalisations: ``jobs`` is a sequence of
    :class:`ModelJob`s instead of one model (pass one job for a sharded
    single-model run), ``shards`` is how many contiguous shards each job's
    requests are split into (one checkpoint file each), ``planner``
    decides where the cuts land
    (:class:`~repro.pipeline.planner.CountPlanner` by default,
    :class:`~repro.pipeline.planner.CostPlanner` to balance by predicted
    seconds), and ``prefetch_batches`` bounds how many prepared batches
    generation may run ahead of scoring.

    ``cost_model`` prices batches for the steal policy's remaining-seconds
    estimates, ``calibration`` is the
    :class:`~repro.evalcluster.calibration.CalibrationStore` every
    sub-pipeline feeds measured durations into (when the cost model is a
    :class:`~repro.evalcluster.calibration.CalibratedCostModel` over the
    same store, stealing re-predicts as those measurements arrive).

    ``batch_sizer`` swaps the fixed-count batch cuts for
    :class:`~repro.pipeline.planner.BatchSizer`'s equal-predicted-seconds
    cuts — same request order, same number of batches or fewer, identical
    records; only where one batch ends and the next begins moves.

    Executors resolved here from spec strings are owned by (and torn down
    with) this scheduler; instances passed in belong to the caller.
    """

    def __init__(
        self,
        jobs: Sequence[ModelJob],
        *,
        shards: int = 1,
        planner: ShardPlanner | None = None,
        executor: str | Executor = "serial",
        generate_executor: str | Executor | None = None,
        max_workers: int = 1,
        rate_limit: float | None = None,
        lease_seconds: float | None = None,
        store: ReferenceStore | None = None,
        run_unit_tests: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        prefetch_batches: int = 2,
        steal_policy: StealPolicy | None = None,
        cost_model: CostModel | None = None,
        calibration: "CalibrationStore | None" = None,
        score_cache: ScoreCache | None = None,
        batch_sizer: BatchSizer | None = None,
        worker_speeds: Sequence[float] | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if prefetch_batches < 1:
            raise ValueError("prefetch_batches must be >= 1")
        self.jobs = list(jobs)
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ValueError(f"jobs must have distinct model names; duplicated: {duplicates}")
        for job in self.jobs:
            if isinstance(job.checkpoint, PipelineCheckpoint):
                raise TypeError(
                    "scheduled runs derive one checkpoint file per (model, shard); pass "
                    "the base path (str or PathLike), not a PipelineCheckpoint instance"
                )
        self.shards = shards
        self.planner: ShardPlanner = planner if planner is not None else CountPlanner()
        self.max_workers = max_workers
        self.store = store or ReferenceStore()
        self.run_unit_tests = run_unit_tests
        self.batch_size = batch_size
        self.batch_sizer = batch_sizer
        self.prefetch_batches = prefetch_batches
        self.steal_policy = steal_policy if steal_policy is not None else StealPolicy()
        if worker_speeds is not None and not worker_speeds:
            worker_speeds = None
        self.worker_speeds = list(worker_speeds) if worker_speeds is not None else None
        self.calibration = calibration
        # One score cache for every sub-pipeline of every model: different
        # models frequently emit identical answers, and the shared store is
        # what lets model B's lookups hit cards model A just wrote.
        self.score_cache = score_cache
        if cost_model is None:
            if calibration is not None:
                from repro.evalcluster.calibration import CalibratedCostModel

                cost_model = CalibratedCostModel(store=calibration)
            else:
                cost_model = CostModel()
        self.cost_model = cost_model
        # Executors are shared across every sub-pipeline of every model so
        # pools (threads, processes, the event-loop rate limiter) are built
        # once per leaderboard run.
        self._owns_executor = isinstance(executor, str)
        self._owns_generate_executor = isinstance(generate_executor, str)
        self.executor = resolve_executor(executor, max_workers, rate_limit, lease_seconds)
        self.generate_executor = (
            resolve_executor(generate_executor, max_workers, rate_limit, lease_seconds)
            if generate_executor is not None
            else None
        )
        self._pipelines: list[EvaluationPipeline] = []

    # ------------------------------------------------------------------
    # Sub-pipeline assembly
    # ------------------------------------------------------------------
    def plan_job(self, job: ModelJob) -> ShardPlan:
        """The shard plan the configured planner picks for ``job``."""

        return self.planner.plan(job.requests, self.shards)

    def job_shard_checkpoint(
        self, job: ModelJob, index: int, num_shards: int
    ) -> PipelineCheckpoint | None:
        """The checkpoint of ``job``'s shard ``index`` (None when disabled)."""

        if job.checkpoint is None:
            return None
        return PipelineCheckpoint(shard_checkpoint_path(job.checkpoint, index, num_shards))

    def _build_units(self) -> list[list[Unit]]:
        """Per-job batch units, in request order within each job.

        Empty shards (a job with zero requests) build no pipeline and no
        checkpoint file — there is nothing to resume and nothing to score.
        """

        per_job: list[list[Unit]] = []
        for job in self.jobs:
            plan = self.plan_job(job)
            units: list[Unit] = []
            for index, shard_requests in enumerate(plan.split(job.requests)):
                if not shard_requests:
                    continue
                pipeline = EvaluationPipeline(
                    job.model,
                    executor=self.executor,
                    generate_executor=self.generate_executor,
                    max_workers=self.max_workers,
                    store=self.store,
                    run_unit_tests=self.run_unit_tests,
                    checkpoint=self.job_shard_checkpoint(job, index, plan.num_shards),
                    batch_size=self.batch_size,
                    calibration=self.calibration,
                    score_cache=self.score_cache,
                    model_spec=job.model_spec,
                )
                self._pipelines.append(pipeline)
                if self.batch_sizer is not None:
                    # Calibration-aware cuts: contiguous batches of roughly
                    # equal predicted seconds, never more batches than the
                    # fixed-count split would make.  Contiguity keeps the
                    # merged records — and every ScoreCard — bit-identical.
                    for batch in self.batch_sizer.cut(shard_requests):
                        units.append((pipeline, batch))
                else:
                    for start in range(0, len(shard_requests), self.batch_size):
                        units.append((pipeline, shard_requests[start : start + self.batch_size]))
            per_job.append(units)
        return per_job

    # ------------------------------------------------------------------
    # Shared scheduling plumbing
    # ------------------------------------------------------------------
    def _generation_workers(self, units: int) -> int:
        """How many generation workers may prepare batches concurrently.

        Up to ``prefetch_batches`` batches are in flight at once, so their
        endpoint waits overlap *across* batches (and models) instead of
        serialising in one producer loop — this is what actually saturates
        a latency-bound endpoint.  A shared token-bucket rate limiter
        forces a single worker: the bucket globally paces requests, and
        draining it from several event loops at once would race its clock.
        """

        # The generate stage falls back to the scoring executor when no
        # dedicated generation backend is configured, so check whichever
        # executor will actually carry the batches.
        if self._limited_generation():
            return 1
        return max(1, min(self.prefetch_batches, units))

    def _limited_generation(self) -> bool:
        """Whether a shared token bucket paces generation (single drainer)."""

        generation_backend = self.generate_executor or self.executor
        return getattr(generation_backend, "limiter", None) is not None

    def _worker_speed(self, worker_index: int) -> float:
        """The relative speed of generation worker ``worker_index``.

        Explicit ``worker_speeds`` win; otherwise a fleet backend's
        heartbeat-observed relative speeds
        (:meth:`~repro.evalcluster.fleet.FleetExecutor.worker_relative_speeds`)
        are cycled onto the scheduler's worker threads.  ``1.0`` — the
        homogeneous assumption, and the exact pre-weighting behaviour —
        when nothing has been observed yet.
        """

        speeds: Sequence[float] | None = self.worker_speeds
        if speeds is None:
            generation_backend = self.generate_executor or self.executor
            observed = getattr(generation_backend, "worker_relative_speeds", None)
            if observed is not None:
                speeds = observed() or None
        if not speeds:
            return 1.0
        return float(speeds[worker_index % len(speeds)])

    def _job_cost_model(self, job: ModelJob) -> CostModel:
        """The cost model pricing ``job``'s batches.

        A calibrated model is scoped to the job's endpoint via
        ``for_model`` so per-model latency skew (a ``per_model``
        calibration store records it) steers the steal order; with a
        single-key store the scoped copy predicts identically to the
        shared model, and a plain :class:`CostModel` is used as-is.
        """

        for_model = getattr(self.cost_model, "for_model", None)
        if callable(for_model):
            return for_model(job.name)
        return self.cost_model

    def _predict_unit_seconds(
        self, batch: Sequence[GenerationRequest], cost_model: CostModel | None = None
    ) -> float:
        """Predicted seconds of one batch unit (cold cache, warm within)."""

        model = cost_model if cost_model is not None else self.cost_model
        return model.predict_problems_seconds(request.problem for request in batch)

    def _prediction_version(self) -> int:
        """The cost model's input version — bumps force re-prediction."""

        store = getattr(self.cost_model, "store", None)
        return getattr(store, "version", 0)

    def run_iter(self) -> Iterator[tuple[str, EvaluationRecord]]:
        """Stream ``(model_name, record)`` pairs across all jobs.

        Within a job, records arrive strictly in request order (each
        sub-pipeline's checkpoint and the per-model fold rely on it);
        between jobs the stream weaves in steal order.  Generation workers
        run the generation-side half of every batch — at most
        ``prefetch_batches`` in flight — while this thread scores and
        yields.  A per-job lock keeps one
        model's batches from generating *concurrently* (models need not
        be thread-safe), though under the in-flight window a job's batches
        may prepare out of claim order; that is safe because generation is
        per-request deterministic — the same contract the async backend's
        within-batch overlap already relies on.
        """

        yield from self._run_iter_steal(self._build_units())

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------
    def _run_iter_steal(
        self, per_job: list[list[Unit]]
    ) -> Iterator[tuple[str, EvaluationRecord]]:
        """Dynamic claiming: idle capacity steals from the longest job.

        Per-job deques share one claim point guarded by ``ready``; a
        worker (or the idle consumer) claims the next unclaimed unit of
        the job the :class:`StealPolicy` picks — longest predicted
        remaining seconds first, re-predicted whenever the calibrated cost
        model absorbed new measurements.  Prepared units are *released*
        (scored, checkpointed, yielded) in claim order within each job,
        but across jobs strictly in readiness order: a straggler batch
        never blocks another model's finished work, so one slow batch
        cannot stall the whole stream.
        """

        total = sum(len(units) for units in per_job)
        if total == 0:
            return

        # Predicted seconds per unit and per-job remaining (unclaimed) sums,
        # priced by each job's (possibly endpoint-scoped) cost model.
        job_cost_models = [self._job_cost_model(job) for job in self.jobs]
        unit_seconds = [
            [
                self._predict_unit_seconds(batch, job_cost_models[job_index])
                for _pipeline, batch in units
            ]
            for job_index, units in enumerate(per_job)
        ]
        remaining = [sum(seconds) for seconds in unit_seconds]
        seen_version = [self._prediction_version()]

        stop = threading.Event()
        ready = threading.Condition()
        results: dict[tuple[int, int], object] = {}
        next_claim = [0] * len(per_job)
        next_release = [0] * len(per_job)
        in_flight = threading.Semaphore(self.prefetch_batches)
        job_locks = [threading.Lock() for _ in per_job]
        # Worker-claimed units whose prepared entry has not been stored yet
        # — while any exist, a result is imminent and the consumer should
        # wait for it rather than block its scoring thread on generation.
        in_prep = [0]
        # The consumer may only prepare batches itself when no shared token
        # bucket paces generation — a limiter must have a single drainer.
        consumer_may_steal = not self._limited_generation()

        # Re-prediction sweeps run under the ``ready`` lock, and with
        # calibration wired in the store's version bumps on *every*
        # released batch — so the sweep is throttled adaptively: after a
        # sweep that took d seconds, the next one may run no sooner than
        # max(50 ms, 20 * d) later, bounding sweep time to ~5% of the
        # claim point's wall-clock.  Steal order is a heuristic, so acting
        # on predictions a few batches stale never affects records.
        repredict_not_before = [0.0]

        def repredict_locked() -> None:
            """Re-price unclaimed units when the cost model learned more."""

            version = self._prediction_version()
            if version == seen_version[0]:
                return
            now = time.monotonic()
            if now < repredict_not_before[0]:
                return
            seen_version[0] = version
            for job_index, units in enumerate(per_job):
                for unit_index in range(next_claim[job_index], len(units)):
                    unit_seconds[job_index][unit_index] = self._predict_unit_seconds(
                        units[unit_index][1], job_cost_models[job_index]
                    )
                remaining[job_index] = sum(unit_seconds[job_index][next_claim[job_index] :])
            elapsed = time.monotonic() - now
            repredict_not_before[0] = now + max(0.05, 20.0 * elapsed)

        def take_locked(job_index: int) -> tuple[int, int]:
            unit_index = next_claim[job_index]
            next_claim[job_index] += 1
            remaining[job_index] -= unit_seconds[job_index][unit_index]
            return job_index, unit_index

        def claim_locked(worker_speed: float = 1.0) -> tuple[int, int] | None:
            """Claim the policy's next unit for a worker (holding ``ready``)."""

            repredict_locked()
            claimable = [next_claim[j] < len(per_job[j]) for j in range(len(per_job))]
            busy = [lock.locked() for lock in job_locks]
            next_seconds = [
                unit_seconds[j][next_claim[j]] if claimable[j] else float("inf")
                for j in range(len(per_job))
            ]
            job_index = self.steal_policy.choose(
                remaining,
                claimable,
                busy,
                worker_speed=worker_speed,
                next_unit_seconds=next_seconds,
            )
            if job_index is None:
                return None
            return take_locked(job_index)

        def claim_for_consumer_locked() -> tuple[int, int] | None:
            """Claim a unit the idle consumer can prepare itself.

            Only units that are immediately releasable after preparation
            (the job's next unreleased unit, no batch of the job in
            flight) qualify — anything else would leave the scoring
            thread holding work it cannot finish — and the pick is the
            *cheapest* predicted batch, because every second spent here
            is a second the CPU pipeline stalls.
            """

            repredict_locked()
            claimable = [
                next_claim[j] < len(per_job[j])
                and next_claim[j] == next_release[j]
                and not job_locks[j].locked()
                for j in range(len(per_job))
            ]
            next_seconds = [
                unit_seconds[j][next_claim[j]] if claimable[j] else 0.0
                for j in range(len(per_job))
            ]
            job_index = self.steal_policy.choose_for_consumer(next_seconds, claimable)
            if job_index is None:
                return None
            return take_locked(job_index)

        def produce(worker_index: int) -> None:
            while not stop.is_set():
                if not in_flight.acquire(timeout=0.05):
                    continue  # re-check stop while the window is full
                with ready:
                    claim = claim_locked(self._worker_speed(worker_index))
                    if claim is None:
                        in_flight.release()
                        return
                    in_prep[0] += 1
                job_index, unit_index = claim
                pipeline, batch = per_job[job_index][unit_index]
                try:
                    with job_locks[job_index]:
                        entry: object = (pipeline, pipeline.prepare_batch(batch))
                except BaseException as exc:  # noqa: BLE001 - relayed to the consumer
                    entry = _ProducerFailure(exc)
                with ready:
                    results[(job_index, unit_index)] = entry
                    in_prep[0] -= 1
                    ready.notify_all()
                if isinstance(entry, _ProducerFailure):
                    return

        workers = [
            threading.Thread(
                target=produce, args=(i,), name=f"leaderboard-stealer-{i}", daemon=True
            )
            for i in range(self._generation_workers(total))
        ]
        for worker in workers:
            worker.start()
        try:
            released = 0
            while released < total:
                stolen: tuple[int, int] | None = None
                entry: object = None
                job_index = -1
                with ready:
                    while True:
                        releasable = [
                            j
                            for j in range(len(per_job))
                            if (j, next_release[j]) in results
                        ]
                        if releasable:
                            # Deterministic pick among ready jobs: longest
                            # predicted remaining first (the straggler's
                            # records should stream out, not queue up).
                            job_index = max(releasable, key=lambda j: (remaining[j], -j))
                            entry = results.pop((job_index, next_release[job_index]))
                            # The batch leaves the prepared-and-waiting
                            # window the moment the consumer takes it:
                            # freeing the slot *before* scoring lets a
                            # worker start the straggler's next batch
                            # while this one is still on the CPU —
                            # holding it through finish_batch would
                            # serialise generation behind scoring.
                            in_flight.release()
                            break
                        if consumer_may_steal and in_prep[0] == 0:
                            # Nothing prepared and nothing being prepared:
                            # the consumer is genuinely idle, so it steals
                            # a batch itself rather than sleeping.
                            stolen = claim_for_consumer_locked()
                            if stolen is not None:
                                break
                        if not any(worker.is_alive() for worker in workers):
                            raise RuntimeError(
                                "generation workers exited with "
                                f"{total - released} of {total} batches unreleased"
                            )  # pragma: no cover - defensive; failures arrive as entries
                        ready.wait(timeout=0.05)
                if stolen is not None:
                    # The scoring consumer went idle: prepare the batch
                    # itself instead of waiting on the generation workers.
                    job_index, unit_index = stolen
                    pipeline, batch = per_job[job_index][unit_index]
                    with job_locks[job_index]:
                        entry = (pipeline, pipeline.prepare_batch(batch))
                if isinstance(entry, _ProducerFailure):
                    raise entry.error
                pipeline, prepared = entry
                name = self.jobs[job_index].name
                for record in pipeline.finish_batch(prepared):
                    yield name, record
                with ready:
                    next_release[job_index] += 1
                    ready.notify_all()
                released += 1
        finally:
            stop.set()
            with ready:
                ready.notify_all()
            for worker in workers:
                worker.join(timeout=30.0)

    def run(self) -> dict[str, ModelEvaluation]:
        """Evaluate every job and fold records into per-model evaluations.

        The mapping preserves job order; each evaluation's records are in
        that model's request order — bit-identical to sequential
        per-model runs.
        """

        records: dict[str, list[EvaluationRecord]] = {job.name: [] for job in self.jobs}
        for name, record in self.run_iter():
            records[name].append(record)
        return {
            job.name: ModelEvaluation(model_name=job.name, records=records[job.name])
            for job in self.jobs
        }

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the sub-pipelines' query pools and any owned executors."""

        for pipeline in self._pipelines:
            pipeline.query.close()
        if self._owns_executor:
            close_executor(self.executor)
        if self._owns_generate_executor and self.generate_executor is not None:
            close_executor(self.generate_executor)

    def __enter__(self) -> "MultiModelScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
