"""The distributed fleet: wire protocol, worker death, bit-identity.

Three layers under test:

* the frame protocol and :class:`StoreServer` command surface — including
  a torn half-frame on disconnect, which must drop only that connection;
* the :class:`FleetExecutor` map contract — ordered results, error
  propagation, duplicate-execution safety — and its submit seam, where
  several submissions share the fleet and one coordinator loop;
* the end-to-end invariant: a fleet evaluation with a worker SIGKILLed
  mid-batch re-enqueues its job exactly once and still produces records
  bit-identical to a serial run.
"""

from __future__ import annotations

import json
import math
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.evalcluster.fleet import (
    CLAIMS_KEY,
    FleetExecutor,
    FrameError,
    RemoteStore,
    StoreCommandError,
    StoreServer,
    recv_frame,
    send_frame,
)
from repro.evalcluster.kvstore import RedisLikeStore
from repro.evalcluster.master import Master
from repro.utils.faults import FaultPlan, FaultSpec

MODEL = "gpt-3.5"

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")



@pytest.fixture()
def server():
    with StoreServer() as served:
        served.start()
        yield served


@pytest.fixture()
def client(server):
    store = RemoteStore(server.address, reconnect_attempts=2, reconnect_delay=0.05)
    yield store
    store.close()


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_every_store_command_round_trips(self, client):
        assert client.ping() == "pong"
        client.set("s", {"nested": [1, 2]})
        assert client.get("s") == {"nested": [1, 2]}
        assert client.get("absent", "fallback") == "fallback"
        assert client.incr("n") == 1
        assert client.incr("n", 5) == 6
        client.hset("h", "a", 1)
        assert client.hsetnx("h", "a", 99) is False
        assert client.hsetnx("h", "b", 2) is True
        assert client.hget("h", "a") == 1
        assert client.hgetall("h") == {"a": 1, "b": 2}
        assert client.hlen("h") == 2
        assert client.hdel("h", "a") is True
        assert client.hdel("h", "a") is False
        assert client.rpush("l", "x", "y", "z") == 3
        assert client.llen("l") == 3
        assert client.lrange("l") == ["x", "y", "z"]
        assert client.lpop("l") == "x"
        client.delete("l")
        assert client.llen("l") == 0
        assert "s" in client.keys() and "h" in client.keys()

    def test_blpop_waits_for_a_push(self, server, client):
        producer = RemoteStore(server.address)
        try:
            start = time.monotonic()
            assert client.blpop("queue", 0.2) is None  # times out empty
            assert time.monotonic() - start >= 0.15
            producer.rpush("queue", "item")
            assert client.blpop("queue", 2.0) == "item"
        finally:
            producer.close()

    def test_claim_pops_and_registers_atomically(self, client):
        client.rpush("q", "job-1")
        assert client.claim("q", CLAIMS_KEY, "w0", 1.0) == "job-1"
        worker, sequence = client.hgetall(CLAIMS_KEY)["job-1"]
        assert worker == "w0"
        assert sequence >= 1
        # Re-claims get a fresh sequence number, so a stale claim row is
        # distinguishable from the re-claim of a re-enqueued job.
        client.rpush("q", "job-1")
        _, second_sequence = (
            client.claim("q", CLAIMS_KEY, "w1", 1.0),
            client.hgetall(CLAIMS_KEY)["job-1"][1],
        )
        assert second_sequence > sequence
        assert client.claim("q", CLAIMS_KEY, "w2", 0.1) is None  # drained

    def test_server_error_is_relayed_not_fatal(self, client):
        with pytest.raises(StoreCommandError):
            client.call("no-such-command")
        assert client.ping() == "pong"  # connection still healthy

    def test_torn_half_frame_drops_only_that_connection(self, server, client):
        """A peer that dies mid-frame must not take the server down."""

        payload = pickle.dumps(("set", "torn", "never-arrives"))
        raw = socket.create_connection(server.address)
        raw.sendall(struct.pack(">I", len(payload)) + payload[: len(payload) // 2])
        raw.close()  # half a frame, then gone
        # The server survives and keeps serving other connections.
        assert client.ping() == "pong"
        assert client.get("torn") is None  # the torn command never executed

    def test_recv_frame_raises_on_mid_frame_eof(self):
        left, right = socket.socketpair()
        try:
            payload = pickle.dumps("data")
            left.sendall(struct.pack(">I", len(payload)) + payload[:2])
            left.close()
            with pytest.raises(FrameError):
                recv_frame(right)
        finally:
            right.close()

    def test_recv_frame_mid_length_prefix_reports_bytes_read(self):
        """A peer that dies inside the 4-byte length prefix is a torn
        frame too — the error must say how far the prefix got, not
        masquerade as a clean EOF or a short pickle."""

        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 64)[:2])  # half a length prefix
            left.close()
            with pytest.raises(FrameError, match=r"length-prefix \(2/4 bytes\)"):
                recv_frame(right)
        finally:
            right.close()

    def test_claim_many_pops_a_batch_atomically(self, client):
        client.rpush("q", "job-1", "job-2", "job-3", "job-4", "job-5")
        claimed = client.claim_many("q", CLAIMS_KEY, "w0", 3, 1.0)
        assert claimed == ["job-1", "job-2", "job-3"]
        claims = client.hgetall(CLAIMS_KEY)
        sequences = [claims[job_id][1] for job_id in claimed]
        assert all(claims[job_id][0] == "w0" for job_id in claimed)
        # Every claim in the batch gets its own fresh sequence number.
        assert len(set(sequences)) == 3
        # A partial batch now beats a full batch later: the two leftover
        # jobs come back immediately even though limit is 3 again...
        assert client.claim_many("q", CLAIMS_KEY, "w1", 3, 1.0) == ["job-4", "job-5"]
        # ...and a drained queue times out to an empty batch, not None.
        assert client.claim_many("q", CLAIMS_KEY, "w2", 3, 0.1) == []

    def test_report_many_writes_rows_and_completion_events(self, client):
        reports = [
            ("job-1", {"worker_id": "w0", "passed": True}),
            ("job-2", {"worker_id": "w0", "passed": False}),
        ]
        assert client.report_many("results", "done", reports) == 2
        assert client.hgetall("results") == dict(reports)
        assert client.lrange("done") == ["job-1", "job-2"]
        # Rows are first-write-wins like single reports: a retried batch
        # writes zero rows but still pushes its completion events.
        retry = [("job-1", {"worker_id": "w9", "passed": False})]
        assert client.report_many("results", "done", retry) == 0
        assert client.hget("results", "job-1") == {"worker_id": "w0", "passed": True}

    def test_rate_acquire_debits_one_shared_bucket(self, server):
        """Two connections drain a single server-side token balance."""

        first = RemoteStore(server.address)
        second = RemoteStore(server.address)
        try:
            waits = [
                store.rate_acquire("pace", 10.0, burst=2)
                for store in (first, second, first, second)
            ]
        finally:
            first.close()
            second.close()
        # Burst covers the first two grants; after that every grant waits
        # one refill interval longer than the last — proof the two
        # connections debit the same bucket, not one each.
        assert waits[0] == 0.0 and waits[1] == 0.0
        assert waits[2] == pytest.approx(0.1, abs=0.05)
        assert waits[3] == pytest.approx(0.2, abs=0.05)
        # First-config-wins: later parameters cannot reset the balance.
        third = RemoteStore(server.address)
        try:
            assert third.rate_acquire("pace", 1_000_000.0, burst=64) > 0.0
        finally:
            third.close()

    def test_reconnect_while_parked_in_blpop(self):
        """A store *crash* under a parked ``blpop`` is survivable: the
        client's retry loop re-dials the restarted server and re-issues
        the pop, so the next push is delivered.

        A graceful shutdown would answer the parked pop with ``None``
        before closing, so the crash must be a SIGKILL of a real store
        process — the connection dies without a reply.
        """

        def spawn_store(port: int) -> subprocess.Popen:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.evalcluster.fleet",
                    "store",
                    "--port",
                    str(port),
                ],
                env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
                stdout=subprocess.PIPE,
                text=True,
            )
            assert "serving" in process.stdout.readline()
            return process

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        first = spawn_store(port)
        client = RemoteStore(
            ("127.0.0.1", port), reconnect_attempts=20, reconnect_delay=0.05
        )
        second = None
        try:
            parked: list[object] = []
            waiter = threading.Thread(
                target=lambda: parked.append(client.blpop("queue", 30.0)), daemon=True
            )
            waiter.start()
            time.sleep(0.3)  # let the blpop park server-side
            first.kill()  # crash: the parked call dies without a reply
            first.wait()
            second = spawn_store(port)
            producer = RemoteStore(("127.0.0.1", port))
            try:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not parked:
                    producer.rpush("queue", "after-restart")
                    time.sleep(0.1)
            finally:
                producer.close()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert parked == ["after-restart"]
        finally:
            client.close()
            for process in (first, second):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait()

    def test_send_recv_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"k": [1, "two", 3.0]})
            assert recv_frame(right) == {"k": [1, "two", 3.0]}
        finally:
            left.close()
            right.close()

    def test_remote_store_drives_an_unmodified_master(self, client):
        """The Master's queue semantics hold verbatim over the wire."""

        from repro.evalcluster.master import EvaluationJob

        master = Master(store=client, lease_seconds=None)
        master.submit([EvaluationJob(job_id=f"j{i}", problem_id=f"p{i}") for i in range(3)])
        assert master.pending() == 3
        job = master.claim("w0")
        master.report(job.job_id, worker_id="w0", finished_at=1.0, passed=True, result=42)
        assert master.completed() == 1
        assert master.result_of(job.job_id) == 42


# ---------------------------------------------------------------------------
# FleetExecutor map contract
# ---------------------------------------------------------------------------


class TestFleetExecutor:
    def test_map_returns_ordered_results(self):
        with FleetExecutor(num_workers=2, lease_seconds=10.0) as executor:
            values = list(range(30))
            assert executor.map(math.factorial, values) == [math.factorial(v) for v in values]

    def test_consecutive_maps_reuse_the_fleet(self):
        with FleetExecutor(num_workers=2, lease_seconds=10.0) as executor:
            first = executor.map(math.factorial, [3, 4])
            second = executor.map(math.factorial, [5, 6])
            assert (first, second) == ([6, 24], [120, 720])
            stats = executor.stats()
            assert stats.completed == 4
            assert stats.pending == 0

    def test_chunked_map_amortises_jobs(self):
        # 64 tasks on 2 workers auto-chunk to 8 tasks/job: the store
        # round-trips are paid 8 times, not 64, and order still holds.
        with FleetExecutor(num_workers=2, lease_seconds=10.0) as executor:
            values = list(range(64))
            assert executor.map(math.factorial, values) == [math.factorial(v) for v in values]
            assert executor.stats().completed == 8

    def test_rejects_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            FleetExecutor(num_workers=1, chunk_size=0)

    def test_task_exception_propagates(self):
        with FleetExecutor(num_workers=1, lease_seconds=10.0) as executor:
            with pytest.raises(RuntimeError, match="fleet job .* failed"):
                executor.map(math.sqrt, [4.0, -1.0])

    def test_requires_exactly_one_deployment_shape(self):
        with pytest.raises(ValueError):
            FleetExecutor()
        with pytest.raises(ValueError):
            FleetExecutor(num_workers=2, address=("127.0.0.1", 1))

    def test_construction_is_lazy(self):
        # Parametrised suites construct every executor name; a fleet that
        # never maps must not spawn processes or bind sockets.
        executor = FleetExecutor(num_workers=4, lease_seconds=10.0)
        assert executor.stats() is None
        executor.close()

    def test_attach_to_external_store(self, server):
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.evalcluster.fleet",
                "worker",
                "--connect",
                f"{server.host}:{server.port}",
                "--claim-timeout",
                "0.1",
            ],
            env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
        )
        try:
            with FleetExecutor(address=server.address, lease_seconds=10.0) as executor:
                assert executor.map(math.factorial, [5, 7]) == [120, 5040]
        finally:
            worker.terminate()
            worker.wait(timeout=10)


# ---------------------------------------------------------------------------
# The submit seam: several submissions on the fleet at once
# ---------------------------------------------------------------------------


def _booted(executor, workers, timeout=60.0):
    """Map until every worker has heartbeated, so each is parked on a
    claim when the test's own jobs arrive."""

    deadline = time.monotonic() + timeout
    executor.map(math.factorial, list(range(2 * workers)))
    while len(executor.stats().heartbeat_ages) < workers:
        assert time.monotonic() < deadline, "fleet workers did not start"
        time.sleep(0.05)
        executor.map(math.factorial, list(range(2 * workers)))


def _done_events(path):
    events = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [event["job"] for event in events if event["event"] == "done"]


class TestSubmit:
    def test_handles_resolved_in_reverse_order_equal_map(self, tmp_path):
        first_tasks, second_tasks = list(range(20)), list(range(20, 33))
        with FleetExecutor(
            num_workers=2, lease_seconds=10.0, event_log=tmp_path / "events.jsonl"
        ) as executor:
            first = executor.submit(math.factorial, first_tasks)
            second = executor.submit(math.factorial, second_tasks)
            assert second.result() == executor.map(math.factorial, second_tasks)
            assert first.result() == executor.map(math.factorial, first_tasks)
            # Each row leaves the executor once.
            with pytest.raises(RuntimeError, match="not outstanding"):
                first.result()
            stats = executor.stats()
            assert stats.pending == stats.claimed == stats.abandoned == 0
            assert executor._rows == {} and executor._outstanding == set()
        done = _done_events(tmp_path / "events.jsonl")
        assert len(done) == len(set(done)) == stats.completed

    def test_a_later_completion_is_parked_and_returned_once(self, tmp_path):
        with FleetExecutor(
            num_workers=2,
            lease_seconds=10.0,
            chunk_size=1,
            claim_batch_limit=1,
            event_log=tmp_path / "events.jsonl",
        ) as executor:
            _booted(executor, 2)
            slow = executor.submit(time.sleep, [1.0])
            fast = executor.submit(math.factorial, [5, 6])
            assert slow.result() == [None]
            # The idle worker ran the later submission while the earlier
            # one was driven: its rows wait in the executor, untaken.
            assert set(executor._rows) == set(fast._job_ids)
            assert fast.result() == [120, 720]
            assert executor._rows == {} and executor._outstanding == set()
        done = _done_events(tmp_path / "events.jsonl")
        assert len(done) == len(set(done))
        assert set(slow._job_ids + fast._job_ids) <= set(done)

    def test_submit_nothing_resolves_to_an_empty_list(self):
        executor = FleetExecutor(num_workers=1, lease_seconds=10.0)
        try:
            assert executor.submit(math.factorial, []).result() == []
            assert executor.stats() is None  # nothing was started for it
        finally:
            executor.close()

    def test_a_payload_failure_raises_from_its_own_handle_only(self):
        with FleetExecutor(num_workers=1, lease_seconds=10.0) as executor:
            failing = executor.submit(math.sqrt, [4.0, -1.0])
            healthy = executor.submit(math.sqrt, [9.0])
            assert healthy.result() == [3.0]
            with pytest.raises(RuntimeError, match="fleet job .* failed"):
                failing.result()
            assert executor._rows == {} and executor._outstanding == set()

    def test_result_after_close_raises_instead_of_waiting(self):
        executor = FleetExecutor(num_workers=1, lease_seconds=10.0)
        future = executor.submit(time.sleep, [0.5])
        executor.close()
        with pytest.raises(RuntimeError, match="not outstanding"):
            future.result()


# ---------------------------------------------------------------------------
# Worker death: exactly-once re-enqueue, bit-identical results
# ---------------------------------------------------------------------------


def _spawn_worker(address, *, worker_id, die_after_claims=None, heartbeat="0.25"):
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
    if die_after_claims is not None:
        # The old ad-hoc --die-after-claims hook, expressed as a fault plan:
        # SIGKILL on the Nth claim.
        plan = FaultPlan([FaultSpec(site="worker.claim", kind="kill", after=die_after_claims)])
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


class TestWorkerDeath:
    def test_sigkilled_worker_batch_requeued_without_burning_second_chances(self, server):
        """One worker SIGKILLs itself right after a claim — the window
        between claim and report that leases exist for.  The reaper must
        re-enqueue the stranded claim batch, and because none of those
        jobs ever *executed* (zero strikes), none of them burns its
        once-only re-enqueue budget: the run finishes with every result
        correct and nothing a second expiry could abandon."""

        workers = [
            _spawn_worker(server.address, worker_id="healthy"),
            _spawn_worker(server.address, worker_id="doomed", die_after_claims=2),
        ]
        try:
            _await_claimants(server, ["healthy", "doomed"])
            # chunk_size=1 pins one task per job so die_after_claims and the
            # completed-job count below stay exact.
            with FleetExecutor(
                address=server.address, lease_seconds=1.2, poll_seconds=0.05, chunk_size=1
            ) as executor:
                values = list(range(40))
                results = executor.map(math.factorial, values)
                assert results == [math.factorial(v) for v in values]
                stats = executor.stats()
            assert stats.requeued == 0, stats.describe()
            assert stats.abandoned == 0
            assert stats.completed == len(values)
            assert workers[1].wait(timeout=10) == -9  # it really was SIGKILL
        finally:
            for worker in workers:
                worker.terminate()
                worker.wait(timeout=10)

    def test_fleet_evaluation_with_mid_run_kill_is_bit_identical_to_serial(
        self, small_dataset, server
    ):
        """The acceptance invariant: a real evaluation whose worker dies
        mid-batch, resumed via the lease reaper, produces records
        bit-identical to the serial backend."""

        problems = list(small_dataset)[:18]
        serial = CloudEvalBenchmark(small_dataset, BenchmarkConfig(seed=7)).evaluate_model(
            MODEL, problems=problems
        )

        workers = [
            _spawn_worker(server.address, worker_id="survivor"),
            _spawn_worker(server.address, worker_id="casualty", die_after_claims=3),
        ]
        executor = FleetExecutor(address=server.address, lease_seconds=1.2, poll_seconds=0.05)
        try:
            _await_claimants(server, ["survivor", "casualty"])
            from repro.pipeline import EvaluationPipeline
            from repro.llm.registry import calibrate_models, get_model
            from repro.llm.interface import GenerationRequest
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
            stats = executor.stats()
        finally:
            executor.close()
            for worker in workers:
                worker.terminate()
                worker.wait(timeout=10)

        assert evaluation.records == serial.records
        # The kill really disrupted the run: the casualty died by SIGKILL
        # mid-map and its stranded claims were resumed (without burning
        # their once-only re-enqueue budget — they never executed).
        assert workers[1].poll() == -9, stats.describe()
        assert stats.abandoned == 0


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


class TestStats:
    def test_stats_track_heartbeats_and_counts(self):
        with FleetExecutor(num_workers=2, lease_seconds=10.0) as executor:
            executor.map(math.factorial, list(range(8)))
            completed = 8
            stats = executor.stats()
            # On a loaded machine the first jobs can drain before the
            # second worker finishes booting; heartbeats are observed
            # during maps, so keep mapping until it has shown up.
            deadline = time.monotonic() + 30.0
            while len(stats.heartbeat_ages) < 2 and time.monotonic() < deadline:
                time.sleep(0.1)
                executor.map(math.factorial, [3])
                completed += 1
                stats = executor.stats()
        assert stats.completed == completed
        assert stats.pending == 0
        assert len(stats.heartbeat_ages) == 2
        assert all(age >= 0.0 for age in stats.heartbeat_ages.values())
        description = stats.describe()
        assert f"{completed} completed" in description
        assert "heartbeats:" in description

    def test_leaderboard_footer_shows_fleet_stats(self):
        from repro.core.benchmark import BenchmarkResult
        from repro.core.report import format_leaderboard
        from repro.evalcluster.master import MasterStats

        stats = MasterStats(
            pending=0,
            claimed=0,
            completed=24,
            requeued=1,
            abandoned=0,
            heartbeat_ages={"worker-0": 0.4},
        )
        rendered = format_leaderboard(BenchmarkResult(), fleet_stats=stats)
        assert "fleet: 0 pending" in rendered
        assert "1 re-enqueued" in rendered
        assert "worker-0 0.4s" in rendered

    def test_worker_throughput_rides_heartbeats_into_stats(self):
        """An executed batch's EWMA throughput reaches MasterStats (and
        the leaderboard footer) on the worker's next heartbeat."""

        from repro.core.benchmark import BenchmarkResult
        from repro.core.report import format_leaderboard

        with FleetExecutor(
            num_workers=1, lease_seconds=10.0, heartbeat_seconds=0.1
        ) as executor:
            # math.frexp returns a (mantissa, exponent) 2-tuple — the
            # same shape as a timed score envelope, and importable from
            # the worker subprocess (the test module itself is not).
            executor.map(math.frexp, list(range(1, 9)))
            # Throughput publishes on the beat *after* an execution, so
            # keep mapping until the observation lands.
            deadline = time.monotonic() + 30.0
            stats = executor.stats()
            while not stats.worker_throughput and time.monotonic() < deadline:
                time.sleep(0.1)
                executor.map(math.frexp, [3])
                stats = executor.stats()
        assert stats.worker_throughput, "no throughput arrived on any heartbeat"
        rates = next(iter(stats.worker_throughput.values()))
        assert rates and all(rate > 0.0 for rate in rates.values())
        # The observed rate renders next to the heartbeat age, wherever
        # the stats line is shown (describe() and the leaderboard footer).
        assert "rec/s" in stats.describe()
        assert "rec/s" in format_leaderboard(BenchmarkResult(), fleet_stats=stats)

    def test_worker_relative_speeds_normalise_observed_throughput(self):
        from repro.evalcluster.master import MasterStats

        with FleetExecutor(num_workers=1, lease_seconds=10.0) as executor:
            executor.map(math.factorial, [1])
            executor._master.record_heartbeat("w-fast", throughput={"score_rps": 30.0})
            executor._master.record_heartbeat("w-slow", throughput={"score_rps": 10.0})
            speeds = executor.worker_relative_speeds()
        assert speeds == [1.5, 0.5]
        assert speeds[0] / speeds[1] == pytest.approx(3.0)
