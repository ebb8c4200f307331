"""Chaos scenarios: scripted faults against the whole fleet stack.

Each test scripts failure through a seeded :class:`FaultPlan` and asserts
the fleet's contractual response:

* a store killed and restarted mid-run replays its journal and the run
  completes with correct results;
* a worker whose heartbeat freezes while a job grinds on is reaped
  exactly once;
* a poison job (kills every worker that executes it) is quarantined by
  the strike rule — or abandoned after two lease expiries — and the run
  still terminates, with the loss surfacing as degraded slots;
* a corrupt frame tears down only the connection that sent it;
* the acceptance scenario: a real evaluation under store restart plus a
  poison problem terminates with deterministic error-marked records and
  a correct coverage stat, every healthy record bit-identical to serial.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.evalcluster.fleet import (
    FleetExecutor,
    RemoteStore,
    StoreServer,
)
from repro.pipeline.executors import DegradedResult
from repro.utils.faults import FaultInjector, FaultPlan, FaultSpec

MODEL = "gpt-3.5"

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def _spawn_worker(address, *, worker_id, plan=None, heartbeat="0.25"):
    command = [
        sys.executable,
        "-m",
        "repro.evalcluster.fleet",
        "worker",
        "--connect",
        f"{address[0]}:{address[1]}",
        "--worker-id",
        worker_id,
        "--heartbeat",
        heartbeat,
        "--claim-timeout",
        "0.1",
    ]
    if plan is not None:
        command += ["--fault-plan", plan.to_json()]
    return subprocess.Popen(command, env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"})


def _await_claimants(server, worker_ids, timeout=60.0):
    """Block until every named worker is warm and asking ``server`` for jobs.

    Jobs submitted before that can all be drained by the worker that came
    up first, and the fault under test then never fires.
    """

    deadline = time.monotonic() + timeout
    while not set(worker_ids) <= server.claimants:
        missing = set(worker_ids) - server.claimants
        assert time.monotonic() < deadline, f"workers never asked for a job: {sorted(missing)}"
        time.sleep(0.02)


def _events(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestStoreRestart:
    def test_store_killed_and_restarted_mid_run_completes_from_journal(self, tmp_path):
        """An injected ``restart`` fault crashes the self-hosted store at a
        scripted sync tick; the replacement replays the journal and every
        client reconnects — the map's results must be unaffected."""

        events_path = tmp_path / "events.jsonl"
        plan = FaultPlan([FaultSpec(site="coordinator.sync", kind="restart", after=5)], seed=3)
        with FleetExecutor(
            num_workers=2,
            lease_seconds=2.0,
            poll_seconds=0.05,
            journal=tmp_path / "store.journal",
            fault_plan=plan,
            event_log=events_path,
        ) as executor:
            values = list(range(40))
            assert executor.map(math.factorial, values) == [math.factorial(v) for v in values]
        names = [event["event"] for event in _events(events_path)]
        restarts = [event for event in _events(events_path) if event["event"] == "restart"]
        assert "fault" in names  # the injected fault itself is in the stream
        assert len(restarts) == 1
        assert restarts[0]["replayed"] > 0  # the new store really replayed

    def test_restart_without_a_journal_is_skipped_not_fatal(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        plan = FaultPlan([FaultSpec(site="coordinator.sync", kind="restart", after=2)])
        with FleetExecutor(
            num_workers=1,
            lease_seconds=5.0,
            poll_seconds=0.05,
            fault_plan=plan,
            event_log=events_path,
        ) as executor:
            assert executor.map(math.factorial, list(range(12))) == [
                math.factorial(v) for v in range(12)
            ]
        names = [event["event"] for event in _events(events_path)]
        assert "restart-skipped" in names
        assert "restart" not in names


class TestFrozenHeartbeat:
    def test_frozen_heartbeat_worker_is_reaped_exactly_once(self):
        """A worker that stops beating while its job grinds on looks dead;
        the lease must expire and the job be re-enqueued exactly once."""

        with StoreServer() as server:
            server.start()
            # The chaotic worker never beats, and its first execution
            # outlives the lease; every later execution is fast, so only
            # that one job is ever reaped.
            plan = FaultPlan(
                [
                    FaultSpec(site="worker.heartbeat", kind="freeze", times=0),
                    FaultSpec(site="worker.execute", kind="delay", seconds=3.0),
                ]
            )
            workers = [
                _spawn_worker(server.address, worker_id="healthy"),
                _spawn_worker(server.address, worker_id="frozen", plan=plan),
            ]
            try:
                _await_claimants(server, ["healthy", "frozen"])
                with FleetExecutor(
                    address=server.address, lease_seconds=1.2, poll_seconds=0.05, chunk_size=1
                ) as executor:
                    values = list(range(24))
                    results = executor.map(math.factorial, values)
                    assert results == [math.factorial(v) for v in values]
                    stats = executor.stats()
                assert stats.requeued == 1, stats.describe()
                assert stats.abandoned == 0
                assert stats.completed == len(values)
                # The frozen worker never produced a visible heartbeat.
                assert "frozen" not in stats.heartbeat_ages
            finally:
                for worker in workers:
                    worker.terminate()
                    worker.wait(timeout=10)


class TestPoisonJobs:
    def test_poison_job_is_quarantined_by_the_strike_rule(self, tmp_path):
        """With ``max_strikes=1`` a job that killed one worker is never
        executed again: the next toucher writes the quarantine row and the
        run completes with a degraded slot in exactly that position."""

        events_path = tmp_path / "events.jsonl"
        # chunk_size=1 makes job ids positional: task 1 rides job ...-00000002.
        plan = FaultPlan(
            [FaultSpec(site="worker.execute", kind="kill", match="-00000002", times=0)]
        )
        with FleetExecutor(
            num_workers=2,
            lease_seconds=1.2,
            poll_seconds=0.05,
            chunk_size=1,
            fault_plan=plan,
            max_strikes=1,
            respawn_limit=3,
            event_log=events_path,
        ) as executor:
            values = list(range(10))
            results = executor.map(math.factorial, values)
            stats = executor.stats()
        expected = [math.factorial(v) for v in values]
        expected[1] = DegradedResult(reason="quarantined after 1 strikes")
        assert results == expected
        assert stats.requeued == 1, stats.describe()
        assert stats.abandoned == 0
        names = [event["event"] for event in _events(events_path)]
        assert "respawn" in names  # the killed worker was replaced

    def test_poison_job_is_abandoned_after_two_lease_expiries(self):
        """With the default strike budget the master's re-enqueue-once rule
        wins: two kills, two expiries, one deterministic degraded slot —
        and the run still terminates."""

        plan = FaultPlan(
            [FaultSpec(site="worker.execute", kind="kill", match="-00000002", times=0)]
        )
        with FleetExecutor(
            num_workers=2,
            lease_seconds=1.2,
            poll_seconds=0.05,
            chunk_size=1,
            fault_plan=plan,
            respawn_limit=3,
        ) as executor:
            values = list(range(10))
            results = executor.map(math.factorial, values)
            stats = executor.stats()
        expected = [math.factorial(v) for v in values]
        expected[1] = DegradedResult(reason="lease expired twice; job abandoned")
        assert results == expected
        assert stats.requeued == 1, stats.describe()
        assert stats.abandoned == 1


class TestCorruptFrames:
    def test_corrupt_frame_drops_only_the_sending_connection(self):
        with StoreServer() as server:
            server.start()
            plan = FaultPlan([FaultSpec(site="remote.call", kind="corrupt", after=2)])
            chaotic = RemoteStore(
                server.address,
                reconnect_attempts=4,
                reconnect_delay=0.05,
                injector=FaultInjector(plan),
            )
            bystander = RemoteStore(server.address)
            try:
                bystander.set("before", "ok")
                chaotic.set("a", 1)  # occurrence 1: clean
                chaotic.set("b", 2)  # occurrence 2: corrupt header, then retried
                assert [f["kind"] for f in chaotic.injector.fired] == ["corrupt"]
                # The chaotic client recovered on a fresh connection...
                assert chaotic.get("a") == 1
                assert chaotic.get("b") == 2
                # ...and the bystander's connection never noticed.
                assert bystander.ping() == "pong"
                assert bystander.get("before") == "ok"
            finally:
                chaotic.close()
                bystander.close()


class TestAcceptance:
    def test_chaotic_evaluation_terminates_with_deterministic_degradation(
        self, small_dataset, tmp_path
    ):
        """The PR's acceptance scenario: a seeded plan restarts the store
        once and poisons one problem (killing every worker that scores
        it).  The evaluation must terminate, replay from the journal,
        degrade exactly the poison record (error set, scores zeroed,
        excluded from means), report coverage, and keep every healthy
        record bit-identical to the serial backend."""

        problems = list(small_dataset)[:12]
        poison = problems[4].problem_id
        serial = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7)).evaluate_model(
            MODEL, problems=problems
        )

        events_path = tmp_path / "events.jsonl"
        plan = FaultPlan(
            [
                FaultSpec(site="coordinator.sync", kind="restart", after=6),
                FaultSpec(site="worker.execute", kind="kill", match=poison, times=0),
            ],
            seed=11,
        )
        executor = FleetExecutor(
            num_workers=2,
            lease_seconds=1.2,
            poll_seconds=0.05,
            chunk_size=1,
            journal=tmp_path / "store.journal",
            fault_plan=plan,
            respawn_limit=4,
            event_log=events_path,
        )
        try:
            from repro.llm.interface import GenerationRequest
            from repro.llm.registry import calibrate_models, get_model
            from repro.pipeline import EvaluationPipeline
            from repro.scoring.compiled import ReferenceStore

            model = calibrate_models([get_model(MODEL, seed=7)], small_dataset)[0]
            pipeline = EvaluationPipeline(
                model, executor=executor, store=ReferenceStore(), batch_size=6
            )
            requests = [
                GenerationRequest(problem=problem, shots=0, sample_index=0)
                for problem in problems
            ]
            evaluation = pipeline.run(requests)
        finally:
            executor.close()

        by_problem = {record.problem_id: record for record in evaluation.records}
        degraded = by_problem[poison]
        assert degraded.error.startswith("degraded: ")
        assert degraded.error in {
            "degraded: lease expired twice; job abandoned",
            "degraded: quarantined after 2 strikes",
        }
        assert degraded.scores.as_dict() == {name: 0.0 for name in degraded.scores.as_dict()}
        assert degraded.scores.failure_message == degraded.error.removeprefix("degraded: ")
        # Every healthy record is bit-identical to the serial backend.
        serial_by_problem = {record.problem_id: record for record in serial.records}
        for problem_id, record in by_problem.items():
            if problem_id != poison:
                assert record == serial_by_problem[problem_id]
        # Coverage counts the loss; the means exclude it.
        assert evaluation.coverage == (len(problems) - 1) / len(problems)
        healthy = [r for r in serial.records if r.problem_id != poison]
        assert evaluation.mean_scores() == serial.mean_scores(healthy)
        # The event stream tells the whole story.
        names = {event["event"] for event in _events(events_path)}
        assert {"fault", "restart", "requeue", "respawn"} <= names

    def test_offloaded_generation_kill_degrades_into_error_marked_records(
        self, small_dataset, tmp_path
    ):
        """Chaos at the ``worker.generate`` site honours the degradation
        contract: a poison problem that kills every worker generating it
        is quarantined into an error-marked zero record, while every
        healthy record — generated *on* the fleet — stays bit-identical
        to the serial parent-generation run.

        The streamed run keeps its two batches on the fleet at once; it
        must degrade exactly what a run taking one batch at a time
        degrades, and report every fleet job once."""

        from repro.llm.interface import GenerationRequest
        from repro.llm.registry import calibrate_models, get_model
        from repro.llm.remote import ModelSpec
        from repro.pipeline import EvaluationPipeline
        from repro.scoring.compiled import ReferenceStore

        problems = list(small_dataset)[:10]
        poison = problems[3].problem_id
        serial = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7)).evaluate_model(
            MODEL, problems=problems
        )
        model = calibrate_models([get_model(MODEL, seed=7)], small_dataset)[0]
        requests = [
            GenerationRequest(problem=problem, shots=0, sample_index=0) for problem in problems
        ]

        def offloaded(events_path, run):
            executor = FleetExecutor(
                num_workers=2,
                lease_seconds=1.2,
                poll_seconds=0.05,
                chunk_size=1,
                fault_plan=FaultPlan(
                    [FaultSpec(site="worker.generate", kind="kill", match=poison, times=0)],
                    seed=23,
                ),
                respawn_limit=4,
                event_log=events_path,
            )
            try:
                pipeline = EvaluationPipeline(
                    model,
                    model_spec=ModelSpec.of(model),
                    executor=executor,
                    store=ReferenceStore(),
                    batch_size=5,
                )
                return run(pipeline)
            finally:
                executor.close()

        def one_batch_at_a_time(pipeline):
            records = []
            for start in range(0, len(requests), pipeline.batch_size):
                batch = requests[start : start + pipeline.batch_size]
                records.extend(pipeline.finish_batch(pipeline.prepare_batch(batch)))
            return pipeline.aggregate.finalize(model.name, records)

        evaluation = offloaded(tmp_path / "events.jsonl", lambda pipeline: pipeline.run(requests))
        stepped = offloaded(tmp_path / "stepped.jsonl", one_batch_at_a_time)

        by_problem = {record.problem_id: record for record in evaluation.records}
        degraded = by_problem[poison]
        assert degraded.error.startswith("degraded: ")
        assert degraded.scores.as_dict() == {name: 0.0 for name in degraded.scores.as_dict()}
        assert degraded.scores.failure_message == degraded.error.removeprefix("degraded: ")

        def degraded_keys(run):
            return {
                (record.problem_id, record.variant)
                for record in run.records
                if record.error.startswith("degraded: ")
            }

        assert degraded_keys(evaluation) == degraded_keys(stepped) == {(poison, degraded.variant)}
        serial_by_problem = {record.problem_id: record for record in serial.records}
        for run in (evaluation, stepped):
            assert [record.problem_id for record in run.records] == [
                problem.problem_id for problem in problems
            ]
            for record in run.records:
                if record.problem_id != poison:
                    assert record == serial_by_problem[record.problem_id]
        assert evaluation.coverage == (len(problems) - 1) / len(problems)
        for events_path in (tmp_path / "events.jsonl", tmp_path / "stepped.jsonl"):
            done = [event["job"] for event in _events(events_path) if event["event"] == "done"]
            assert len(done) == len(set(done)) == len(problems)

    def test_leaderboard_shows_coverage_for_a_degraded_run(self, small_dataset):
        from repro.core.benchmark import BenchmarkResult
        from repro.core.report import format_leaderboard

        benchmark = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7))
        evaluation = benchmark.evaluate_model(MODEL, problems=list(small_dataset)[:6])
        result = BenchmarkResult()
        result.evaluations[MODEL] = evaluation
        clean = format_leaderboard(result)
        assert "coverage" not in clean  # a clean run's leaderboard is unchanged
        # Degrade one record and the column appears automatically.
        evaluation.records[0] = dataclasses.replace(
            evaluation.records[0], error="degraded: lease expired twice; job abandoned"
        )
        rendered = format_leaderboard(result)
        assert "coverage" in rendered
        assert "0.83" in rendered  # 5 of 6 records scored
