"""Generation offload at the pipeline level.

The fleet benchmark proves the wall-clock win; these tests pin the
*contracts* that make the win safe to take: the :class:`ModelSpec`
envelope's validation and build semantics, bit-identity of the offloaded
generate→extract→score chain against the parent path (healthy and
failing endpoints alike), degraded-slot handling, checkpoint resume over
an offloaded run, two batches in flight on a submitting executor (and an
abandoned fleet stream finishing the one still submitted), a job's
requests in flight together with the answers scored in task order,
worker-measured timings surviving ``prepare_batch``'s shared-elapsed
stamping, and the throughput-weighted steal policy.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.evalcluster import fleet as fleet_module
from repro.evalcluster.fleet import FleetExecutor
from repro.llm.interface import GenerationRequest, QueryModule
from repro.llm.registry import get_model
from repro.llm.remote import LiveEndpointModel, ModelSpec, ReplayTransport
from repro.pipeline import EvaluationPipeline, PipelineCheckpoint
from repro.pipeline.executors import DegradedResult
from repro.pipeline.scheduler import ModelJob, MultiModelScheduler, StealPolicy
from repro.pipeline.stages import GenerationTask, run_generation_task, run_generation_tasks
from repro.pipeline import stages as stages_module
from repro.scoring.compiled import ReferenceStore
from repro.utils.faults import FaultInjector, FaultPlan, FaultSpec
from repro.utils.ratelimit import TokenBucket


@pytest.fixture(autouse=True)
def _fresh_spec_memo():
    """:func:`run_generation_task` memoises one built model per spec *name*
    per process; this module reuses names across different specs, so every
    test starts from (and leaves behind) an empty memo."""

    stages_module._SPEC_MODELS.clear()
    yield
    stages_module._SPEC_MODELS.clear()


def _requests(problems):
    return [GenerationRequest(problem=p) for p in problems]


def _replay_spec(name, requests, **overrides):
    """A transport-backed spec replaying the registry model's responses."""

    inner = get_model(name)
    responses = {
        request.prompt(): inner.generate(request.problem) for request in requests
    }
    return ModelSpec(name=name, transport=ReplayTransport(responses), **overrides)


# ---------------------------------------------------------------------------
# The envelope: ModelSpec validation and build semantics
# ---------------------------------------------------------------------------


class TestModelSpec:
    def test_requires_exactly_one_model_source(self):
        with pytest.raises(ValueError, match="exactly one model source"):
            ModelSpec(name="gpt-4")
        with pytest.raises(ValueError, match="exactly one model source"):
            ModelSpec(
                name="gpt-4",
                model=get_model("gpt-4"),
                transport=ReplayTransport({}),
            )

    def test_name_must_match_the_wrapped_model(self):
        with pytest.raises(ValueError, match="does not match model name"):
            ModelSpec(name="gpt-3.5", model=get_model("gpt-4"))
        assert ModelSpec.of(get_model("gpt-4")).name == "gpt-4"

    def test_rate_limit_and_burst_are_validated(self):
        with pytest.raises(ValueError, match="rate_limit"):
            ModelSpec(name="m", transport=ReplayTransport({}), rate_limit=0.0)
        with pytest.raises(ValueError, match="burst"):
            ModelSpec(name="m", transport=ReplayTransport({}), burst=0)

    def test_limiter_key_defaults_to_the_name(self):
        spec = ModelSpec(name="m", transport=ReplayTransport({}))
        assert spec.limiter_key == "m"
        shared = ModelSpec(name="m", transport=ReplayTransport({}), pacer_key="endpoint")
        assert shared.limiter_key == "endpoint"

    def test_build_returns_a_picklable_model_as_is(self):
        model = get_model("gpt-4")
        assert ModelSpec.of(model).build() is model

    def test_build_wraps_a_transport_in_a_paced_live_endpoint(self, small_dataset):
        problem = list(small_dataset)[0]
        request = GenerationRequest(problem=problem)
        spec = _replay_spec("gpt-4", [request], rate_limit=1000.0, burst=4)

        built = spec.build()
        assert isinstance(built, LiveEndpointModel)
        assert isinstance(built.limiter, TokenBucket)
        assert not built.limiter.virtual_clock
        assert built.generate(problem) == get_model("gpt-4").generate(problem)

    def test_build_accepts_a_limiter_override(self, small_dataset):
        request = GenerationRequest(problem=list(small_dataset)[0])
        spec = _replay_spec("gpt-4", [request], rate_limit=1000.0)
        limiter = TokenBucket(500.0, burst=2, virtual_clock=False)
        assert spec.build(limiter=limiter).limiter is limiter

    def test_pipeline_rejects_a_spec_naming_another_model(self):
        spec = ModelSpec(name="gpt-3.5", transport=ReplayTransport({}))
        with pytest.raises(ValueError, match="model_spec names"):
            EvaluationPipeline(get_model("gpt-4"), model_spec=spec)

    def test_config_rejects_offload_with_a_split_generate_executor(self):
        with pytest.raises(ValueError, match="generate_executor cannot apply"):
            BenchmarkConfig(offload_generation=True, generate_executor="thread")


# ---------------------------------------------------------------------------
# Bit-identity: the offloaded chain against the parent path
# ---------------------------------------------------------------------------


class TestOffloadIdentity:
    def test_offloaded_chain_matches_default_chain(self, small_dataset):
        problems = list(small_dataset)[:12]
        model = get_model("gpt-4")
        baseline = EvaluationPipeline(model, store=ReferenceStore()).run(
            _requests(problems)
        )

        offloaded = EvaluationPipeline(
            model,
            model_spec=ModelSpec.of(model),
            executor="serial",
            store=ReferenceStore(),
        )
        assert [stage.name for stage in offloaded.stages] == ["prompt", "fleet-generate"]
        assert offloaded.run(_requests(problems)).records == baseline.records

    def test_offloaded_replay_endpoint_matches_parent_endpoint(self, small_dataset):
        requests = _requests(list(small_dataset)[:10])
        spec = _replay_spec("gpt-4", requests, rate_limit=10_000.0, burst=8)

        parent = EvaluationPipeline(spec.build(), store=ReferenceStore()).run(requests)
        offloaded = EvaluationPipeline(
            spec.build(),
            model_spec=spec,
            executor="serial",
            store=ReferenceStore(),
        ).run(requests)
        assert offloaded.records == parent.records

    def test_endpoint_failures_are_captured_identically(self, small_dataset):
        """A replay gap raises EndpointError on both paths; both capture it
        as the same ``{type}: {message}`` error with a zero-score record."""

        requests = _requests(list(small_dataset)[:4])
        spec = _replay_spec("gpt-4", requests[:-1])  # last prompt unrecorded

        parent = EvaluationPipeline(spec.build(), store=ReferenceStore()).run(requests)
        offloaded = EvaluationPipeline(
            spec.build(),
            model_spec=spec,
            executor="serial",
            store=ReferenceStore(),
        ).run(requests)
        assert offloaded.records == parent.records
        failed = offloaded.records[-1]
        assert failed.error.startswith("EndpointError:")
        assert failed.raw_response == ""
        assert failed.scores.exact_match == 0.0

    def test_config_level_offload_changes_no_score(self, small_dataset):
        problems = list(small_dataset)[:8]
        plain = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7))
        offload = CloudEvalBenchmark(
            small_dataset, BenchmarkConfig(seed=7, offload_generation=True)
        )
        assert (
            offload.evaluate_model("gpt-4", problems=problems).records
            == plain.evaluate_model("gpt-4", problems=problems).records
        )


# ---------------------------------------------------------------------------
# Degradation and resume
# ---------------------------------------------------------------------------


class _LossyExecutor:
    """A serial executor that loses chosen slots the way the fleet does."""

    name = "lossy"

    def __init__(self, lost_indices=(), reason="job lost beyond recovery"):
        self.lost = set(lost_indices)
        self.reason = reason
        self.mapped = 0

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.mapped += len(tasks)
        return [
            DegradedResult(self.reason) if index in self.lost else fn(task)
            for index, task in enumerate(tasks)
        ]


class TestDegradedOffload:
    def test_degraded_slot_becomes_an_error_marked_record(self, small_dataset):
        problems = list(small_dataset)[:5]
        model = get_model("gpt-4")
        baseline = EvaluationPipeline(model, store=ReferenceStore()).run(
            _requests(problems)
        )

        evaluation = EvaluationPipeline(
            model,
            model_spec=ModelSpec.of(model),
            executor=_LossyExecutor({2}),
            store=ReferenceStore(),
        ).run(_requests(problems))

        degraded = evaluation.records[2]
        assert degraded.error == "degraded: job lost beyond recovery"
        assert degraded.scores.failure_message == "job lost beyond recovery"
        assert degraded.scores.exact_match == 0.0
        assert degraded.scores.unit_test == 0.0
        healthy = [r for i, r in enumerate(evaluation.records) if i != 2]
        assert healthy == [r for i, r in enumerate(baseline.records) if i != 2]

    def test_degraded_records_are_retried_on_resume(self, tmp_path, small_dataset):
        """Error records never reach the checkpoint, so a resumed offloaded
        run re-ships exactly the lost envelopes and converges on the truth."""

        problems = list(small_dataset)[:6]
        model = get_model("gpt-4")
        truth = EvaluationPipeline(model, store=ReferenceStore()).run(
            _requests(problems)
        )
        path = tmp_path / "offload.ckpt.jsonl"

        first = EvaluationPipeline(
            model,
            model_spec=ModelSpec.of(model),
            executor=_LossyExecutor({1, 4}),
            store=ReferenceStore(),
            checkpoint=PipelineCheckpoint(path),
        ).run(_requests(problems))
        assert sum(1 for record in first.records if record.error) == 2

        retry = _LossyExecutor()  # loses nothing, counts shipped envelopes
        resumed = EvaluationPipeline(
            model,
            model_spec=ModelSpec.of(model),
            executor=retry,
            store=ReferenceStore(),
            checkpoint=PipelineCheckpoint(path),
        ).run(_requests(problems))
        assert retry.mapped == 2
        assert resumed.records == truth.records


# ---------------------------------------------------------------------------
# Streaming with two batches in flight
# ---------------------------------------------------------------------------


class _MapLog:
    """A serial executor that logs each ``map`` by its batch's first problem."""

    name = "map-log"

    def __init__(self, log):
        self.log = log

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.log.append(("map", tasks[0].request.problem.problem_id))
        return [fn(task) for task in tasks]


class _SubmitLog(_MapLog):
    """Adds the fleet's ``submit`` seam: work is logged when it is handed
    over and again when its results are waited for."""

    def submit(self, fn, tasks):
        tasks = list(tasks)
        first = tasks[0].request.problem.problem_id
        self.log.append(("submit", first))

        def result():
            self.log.append(("result", first))
            return [fn(task) for task in tasks]

        return SimpleNamespace(result=result)


def _logged_run(executor_type, problems, log):
    model = get_model("gpt-4")
    pipeline = EvaluationPipeline(
        model,
        model_spec=ModelSpec.of(model),
        executor=executor_type(log),
        store=ReferenceStore(),
        batch_size=4,
    )
    return pipeline.run_iter(_requests(problems))


class TestBatchesInFlight:
    def test_next_batch_is_submitted_before_the_current_one_is_awaited(self, small_dataset):
        problems = list(small_dataset)[:10]
        truth = EvaluationPipeline(get_model("gpt-4"), store=ReferenceStore()).run(
            _requests(problems)
        )
        log = []
        records = []
        for record in _logged_run(_SubmitLog, problems, log):
            records.append(record)
            log.append(("record", record.problem_id))
        ids = [problem.problem_id for problem in problems]
        assert log == [
            ("submit", ids[0]),
            ("submit", ids[4]),
            ("result", ids[0]),
            *[("record", pid) for pid in ids[0:4]],
            ("submit", ids[8]),
            ("result", ids[4]),
            *[("record", pid) for pid in ids[4:8]],
            ("result", ids[8]),
            *[("record", pid) for pid in ids[8:10]],
        ]
        assert records == truth.records

    def test_an_executor_without_submit_maps_each_batch_when_it_is_finished(
        self, small_dataset
    ):
        problems = list(small_dataset)[:10]
        log = []
        for record in _logged_run(_MapLog, problems, log):
            log.append(("record", record.problem_id))
        ids = [problem.problem_id for problem in problems]
        assert log == [
            ("map", ids[0]),
            *[("record", pid) for pid in ids[0:4]],
            ("map", ids[4]),
            *[("record", pid) for pid in ids[4:8]],
            ("map", ids[8]),
            *[("record", pid) for pid in ids[8:10]],
        ]

    def test_abandoned_fleet_stream_orphans_no_job(self, tmp_path, small_dataset):
        """Closing an offloaded stream after its first record resolves
        and checkpoints the batch still on the fleet: no job is left
        outstanding, a resume ships only the batch that never started,
        and the executor keeps serving."""

        problems = list(small_dataset)[:12]
        model = get_model("gpt-4")
        truth = EvaluationPipeline(model, store=ReferenceStore()).run(_requests(problems))
        path = tmp_path / "abandoned.ckpt.jsonl"
        with FleetExecutor(num_workers=2, lease_seconds=30.0) as executor:

            def pipeline():
                return EvaluationPipeline(
                    model,
                    model_spec=ModelSpec.of(model),
                    executor=executor,
                    store=ReferenceStore(),
                    checkpoint=PipelineCheckpoint(path),
                    batch_size=4,
                )

            stream = pipeline().run_iter(_requests(problems))
            assert next(stream) == truth.records[0]
            stream.close()
            stats = executor.stats()
            assert stats.pending == stats.claimed == stats.abandoned == 0
            assert executor._rows == {} and executor._outstanding == set()
            assert len(PipelineCheckpoint(path)) == 8

            resumed = pipeline().run(_requests(problems))
            assert resumed.records == truth.records
            # Four single-task jobs: only the batch that never started.
            assert executor.stats().completed - stats.completed == 4
            assert executor.map(math.factorial, [5, 6]) == [120, 720]


# ---------------------------------------------------------------------------
# A fleet job's requests in flight together
# ---------------------------------------------------------------------------


class _Raising:
    """A model whose every request fails."""

    name = "raising"

    def generate(self, problem, shots=0, sample_index=0):
        raise ValueError(f"no answer for {problem.problem_id}")


class _Deferred(Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.drain()
        return super().result(timeout)


class _NewestFirstPool:
    """Holds submitted calls until a result is wanted, then runs the
    newest first: the opposite of the order they were sent in."""

    def __init__(self):
        self.queued = []

    def submit(self, fn, *args):
        future = _Deferred(self)
        self.queued.append((future, fn, args))
        return future

    def drain(self):
        while self.queued:
            future, fn, args = self.queued.pop()
            future.set_result(fn(*args))


def _tasks(spec, problems):
    return [GenerationTask(request=request, spec=spec) for request in _requests(problems)]


class TestRequestsInFlight:
    def test_a_raising_model_gives_one_error_on_every_path(self, small_dataset):
        """Error capture is defined once: the parent's query module, one
        offloaded task, and a worker's concurrent job agree on it."""

        problems = list(small_dataset)[:3]
        tasks = _tasks(ModelSpec.of(_Raising()), problems)
        parent = [QueryModule(_Raising())._query_captured(task.request) for task in tasks]
        single = [run_generation_task(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=4) as pool:
            job, _ = run_generation_tasks(tasks, pool)
        for problem, result, one, concurrent in zip(problems, parent, single, job):
            assert result.error == f"ValueError: no answer for {problem.problem_id}"
            assert one.error == concurrent.error == result.error
            assert one.response == concurrent.response == result.response == ""
            assert one.card == concurrent.card

    def test_a_jobs_requests_are_in_flight_together(self, small_dataset):
        """Each request waits at a 4-party barrier, which only breaks when
        all four of the job's requests are in flight at once."""

        problems = list(small_dataset)[:4]
        inner = get_model("gpt-4")
        responses = {request.prompt(): inner.generate(request.problem) for request in _requests(problems)}
        barrier = threading.Barrier(4, timeout=10.0)

        def transport(prompt):
            barrier.wait()
            return responses[prompt]

        tasks = _tasks(ModelSpec(name="gpt-4", transport=transport), problems)
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes, request_seconds = run_generation_tasks(tasks, pool)
        assert [outcome.error for outcome in outcomes] == [""] * 4
        assert [outcome.response for outcome in outcomes] == [
            inner.generate(problem) for problem in problems
        ]
        assert 0.0 < request_seconds <= sum(outcome.generate_seconds for outcome in outcomes)
        stages_module._SPEC_MODELS.clear()
        serial = [run_generation_task(task) for task in _tasks(ModelSpec.of(inner), problems)]
        assert [outcome.card for outcome in outcomes] == [outcome.card for outcome in serial]

    def test_worker_generate_fault_fires_in_task_order(self, small_dataset, monkeypatch):
        """An unmatched ``after=3`` fault lands on the third task's problem
        every time, however the pool orders the requests: on real threads,
        and on a pool that runs the newest request first."""

        problems = list(small_dataset)[:6]
        inner = get_model("gpt-4")
        tasks = _tasks(ModelSpec.of(inner), problems)
        plan = FaultPlan([FaultSpec(site="worker.generate", kind="delay", after=3)])
        with ThreadPoolExecutor(max_workers=6) as threads:
            for pool in [threads] * 5 + [_NewestFirstPool()]:
                injector = FaultInjector(plan)
                monkeypatch.setitem(fleet_module._WORKER_CONTEXT, "injector", injector)
                outcomes, _ = run_generation_tasks(tasks, pool)
                assert [fired["detail"] for fired in injector.fired] == [problems[2].problem_id]
                assert injector.fired[0]["occurrence"] == 3
                assert [outcome.error for outcome in outcomes] == [""] * 6

    def test_model_is_built_once_under_concurrent_first_calls(self, small_dataset, monkeypatch):
        built = []
        original = ModelSpec.build

        def slow_build(spec, limiter=None):
            time.sleep(0.05)
            built.append(spec.name)
            return original(spec, limiter=limiter)

        monkeypatch.setattr(ModelSpec, "build", slow_build)
        spec = ModelSpec.of(get_model("gpt-4"))
        barrier = threading.Barrier(8, timeout=10.0)

        def first_call():
            barrier.wait()
            return stages_module._generation_model(spec)

        with ThreadPoolExecutor(max_workers=8) as pool:
            models = list(pool.map(lambda _: first_call(), range(8)))
        assert built == ["gpt-4"]
        assert all(model is models[0] for model in models)

    def test_a_failed_middle_request_on_a_real_fleet_equals_serial(self, small_dataset):
        """Four-task jobs on a real fleet: the one unrecorded prompt fails
        only its own record, exactly as the parent path fails it."""

        requests = _requests(list(small_dataset)[:8])
        middle = 5
        spec = _replay_spec("gpt-4", requests[:middle] + requests[middle + 1 :])

        parent = EvaluationPipeline(spec.build(), store=ReferenceStore()).run(requests)
        with FleetExecutor(num_workers=1, lease_seconds=30.0, chunk_size=4) as executor:
            offloaded = EvaluationPipeline(
                spec.build(), model_spec=spec, executor=executor, store=ReferenceStore()
            ).run(requests)
        assert offloaded.records == parent.records
        assert [index for index, record in enumerate(offloaded.records) if record.error] == [middle]
        assert offloaded.records[middle].error.startswith("EndpointError:")


# ---------------------------------------------------------------------------
# Worker-measured timings
# ---------------------------------------------------------------------------


class _StampingExecutor:
    """Runs tasks serially, then stamps distinctive worker-side timings."""

    name = "stamping"

    def map(self, fn, tasks):
        outcomes = [fn(task) for task in tasks]
        for index, outcome in enumerate(outcomes):
            outcome.generate_seconds = 10.0 + index
            outcome.score_seconds = 0.5
        return outcomes


class TestWorkerTimings:
    def test_worker_measured_timings_survive_prepare_batch(self, small_dataset):
        """prepare_batch spreads the batch's elapsed time over items that
        carry no measurement — but the offload stage measured each
        generation where it ran, and those numbers must not be averaged
        away."""

        problems = list(small_dataset)[:4]
        model = get_model("gpt-4")
        pipeline = EvaluationPipeline(
            model,
            model_spec=ModelSpec.of(model),
            executor=_StampingExecutor(),
            store=ReferenceStore(),
        )
        prepared = pipeline.prepare_batch(_requests(problems))
        assert [item.generate_seconds for item in prepared.items] == [
            10.0,
            11.0,
            12.0,
            13.0,
        ]
        assert all(item.score_seconds == 0.5 for item in prepared.items)

    def test_default_chain_still_shares_batch_elapsed(self, small_dataset):
        problems = list(small_dataset)[:4]
        pipeline = EvaluationPipeline(get_model("gpt-4"), store=ReferenceStore())
        prepared = pipeline.prepare_batch(_requests(problems))
        shares = {item.generate_seconds for item in prepared.items}
        assert len(shares) == 1 and shares.pop() > 0.0

    def test_run_generation_task_measures_where_it_runs(self, small_dataset):
        problem = list(small_dataset)[0]
        spec = ModelSpec.of(get_model("gpt-4"))
        outcome = run_generation_task(
            stages_module.GenerationTask(
                request=GenerationRequest(problem=problem), spec=spec
            )
        )
        assert outcome.error == ""
        assert outcome.generate_seconds > 0.0
        assert outcome.score_seconds > 0.0
        assert outcome.card.problem_id == problem.problem_id


# ---------------------------------------------------------------------------
# Throughput-weighted stealing
# ---------------------------------------------------------------------------


class TestThroughputAwareStealing:
    REMAINING = [5.0, 1.0, 3.0]
    NEXT_UNIT = [2.0, 0.5, 1.0]
    ALL = [True, True, True]

    def test_fast_claimant_takes_the_longest_straggler(self):
        policy = StealPolicy()
        chosen = policy.choose(
            self.REMAINING, self.ALL, worker_speed=1.5, next_unit_seconds=self.NEXT_UNIT
        )
        assert chosen == 0

    def test_slow_claimant_takes_the_cheapest_next_batch(self):
        policy = StealPolicy()
        chosen = policy.choose(
            self.REMAINING, self.ALL, worker_speed=0.5, next_unit_seconds=self.NEXT_UNIT
        )
        assert chosen == 1

    def test_threshold_is_strict(self):
        """Exactly at the threshold a claimant still counts as fast."""

        policy = StealPolicy()
        at_threshold = policy.choose(
            self.REMAINING,
            self.ALL,
            worker_speed=policy.slow_worker_threshold,
            next_unit_seconds=self.NEXT_UNIT,
        )
        assert at_threshold == 0

    def test_slow_claimant_without_predictions_falls_back_to_straggler(self):
        assert StealPolicy().choose(self.REMAINING, self.ALL, worker_speed=0.5) == 0

    def test_worker_speeds_change_no_record(self, small_original_problems):
        """Speed weighting only redirects *which worker* claims a batch;
        the records every model produces are bit-identical with and
        without it."""

        problems = list(small_original_problems)[:10]

        def streamed(worker_speeds):
            jobs = [
                ModelJob(get_model("gpt-4"), _requests(problems)),
                ModelJob(get_model("gpt-3.5"), _requests(problems)),
            ]
            with MultiModelScheduler(
                jobs,
                shards=2,
                store=ReferenceStore(),
                batch_size=3,
                worker_speeds=worker_speeds,
            ) as scheduler:
                rows = list(scheduler.run_iter())
            return {
                name: [record for job, record in rows if job == name]
                for name in ("gpt-4", "gpt-3.5")
            }

        assert streamed(None) == streamed([2.0, 0.5])
