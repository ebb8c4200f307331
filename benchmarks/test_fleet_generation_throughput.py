"""Fleet-wide generation offload — the latency-bound endpoint guard.

The parent-generation fleet path keeps the model in the coordinator: the
parent process pays every endpoint round-trip serially while the fleet
only scores.  Generation *offload* ships the whole
generate→extract→score chain to the workers as picklable
:class:`~repro.pipeline.stages.GenerationTask` envelopes built from a
:class:`~repro.llm.remote.ModelSpec` — each worker rebuilds the model
once per process and pays the endpoint latency concurrently with its
peers, pacing itself through the store's server-side token bucket so N
processes together still respect the endpoint's global rate limit.

Two guards:

1. **Throughput** — on a latency-bound replay endpoint, the
   fleet-offloaded run must beat the parent-generation fleet run end to
   end by >= 1.5x with four workers (the parent path serialises
   ``N * latency`` while offload pays ``~N * latency / 4``), with records
   bit-identical and per-worker throughput surfaced in the master stats
   footer.  On a shared 2-vCPU machine it measured 3.24-3.31x on the full
   corpus (parent-side 13.6 s, offloaded 4.1 s) and 5.4x on the
   ``REPRO_BENCH_FAST`` corpus CI runs.  The offloaded side streams
   through ``EvaluationPipeline.run``, so it keeps two batches on the
   fleet at once, and each worker keeps a job's requests in flight
   together.  With one request in flight per worker it had read
   2.72-2.75x and 3.6x, and with one batch at a time as well 1.67-1.86x
   and 2.65-2.74x, on the same machine.
2. **Pacing** — four workers hammering one distributed bucket must be
   granted tokens no faster than the configured global rate: the grant
   span has a hard floor of ``(grants - burst) / rate`` and no sliding
   one-second window may exceed ``rate + burst`` grants.

Both are same-machine ratio/derivation guards, so a slow CI runner
cannot flake them.  The throughput guard keeps both fleets up and
alternates the two paths over :data:`ROUNDS` rounds, comparing the
fastest round of each, so a burst of load from elsewhere on a shared
machine slows one round rather than one side.  The offloaded fleet's
event log lands where ``REPRO_FLEET_GEN_EVENTS`` points and is uploaded
as a CI artifact.
"""

from __future__ import annotations

import math
import os
import threading
import time

from benchmarks.common import FAST_MODE, artifact_path, bench_dataset
from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.evalcluster.fleet import (
    DistributedTokenBucket,
    FleetExecutor,
    RemoteStore,
    StoreServer,
)
from repro.llm.remote import ModelSpec, ReplayTransport
from repro.pipeline import EvaluationPipeline
from repro.scoring.compiled import ReferenceStore

MODEL_NAME = "gpt-4"

#: Per-request endpoint latency.  The guard's lever: the parent path pays
#: this serially per request, the offloaded fleet pays it 4-way
#: concurrently, so the latency share of the wall-clock divides by the
#: worker count.
LATENCY_SECONDS = 0.02 if FAST_MODE else 0.012

FLEET_WORKERS = 4

#: Alternating parent/offloaded rounds; the ratio is taken between the
#: fastest of each.
ROUNDS = 3

#: A deliberately generous global rate: the offloaded workers *do* debit
#: the distributed bucket on every request (the wiring is exercised), but
#: pacing never becomes the bottleneck the throughput ratio measures.
GENEROUS_RATE = 50_000.0

#: The guard: fleet-offloaded generation must beat the parent-generation
#: fleet end to end by at least this factor on the latency-bound corpus.
MIN_SPEEDUP = 1.5

#: Where the offloaded fleet's submit/claim/done/requeue event log lands
#: for the CI artifact.
FLEET_GEN_EVENTS_PATH = os.environ.get("REPRO_FLEET_GEN_EVENTS") or artifact_path(
    "BENCH_fleet_generation_events.jsonl"
)


def _replay_spec(dataset, requests) -> ModelSpec:
    """A picklable spec replaying the simulated model's recorded responses."""

    driver = CloudEvalBenchmark(dataset, BenchmarkConfig())
    inner = driver.requests(MODEL_NAME)[0]
    responses = {request.prompt(): inner.generate(request.problem) for request in requests}
    return ModelSpec(
        name=MODEL_NAME,
        transport=ReplayTransport(responses, latency_seconds=LATENCY_SECONDS),
        rate_limit=GENEROUS_RATE,
        burst=64,
    )


def _fleet_executor(dataset, event_log=None) -> FleetExecutor:
    executor = FleetExecutor(
        num_workers=FLEET_WORKERS,
        lease_seconds=60.0,
        heartbeat_seconds=0.25,
        event_log=event_log,
    )
    executor.warm(list(dataset))
    # Boot the store and the worker processes outside the timed region:
    # interpreter start-up is a fixed fleet cost, not throughput.
    executor.map(math.factorial, list(range(FLEET_WORKERS)))
    return executor


def test_fleet_generation_offload_throughput(benchmark):
    dataset = bench_dataset()
    driver = CloudEvalBenchmark(dataset, BenchmarkConfig())
    _, requests = driver.requests(MODEL_NAME)
    spec = _replay_spec(dataset, requests)

    # Both fleets stay up for every round; an idle worker parks on the
    # store until work arrives, so the fleet not being timed costs nothing.
    parent_executor = _fleet_executor(dataset)
    executor = None
    try:
        executor = _fleet_executor(dataset, event_log=FLEET_GEN_EVENTS_PATH)

        # --- parent-generation fleet baseline: the coordinator pays every --
        # --- endpoint round-trip serially, the fleet only scores ----------
        # pedantic calls this before every timed offloaded round, so the
        # two paths take turns.
        parent_rounds = []
        parent_evals = []

        def run_parent():
            start = time.perf_counter()
            parent_evals.append(
                EvaluationPipeline(
                    spec.build(), executor=parent_executor, store=ReferenceStore()
                ).run(requests)
            )
            parent_rounds.append(time.perf_counter() - start)

        # --- fleet-offloaded path: generate AND score on the workers -------
        def run_offloaded():
            pipeline = EvaluationPipeline(
                spec.build(),
                model_spec=spec,
                executor=executor,
                store=ReferenceStore(),
            )
            try:
                return pipeline.run(requests)
            finally:
                pipeline.close()

        offloaded_eval = benchmark.pedantic(
            run_offloaded, setup=run_parent, rounds=ROUNDS, iterations=1
        )
        stats = executor.stats()
    finally:
        parent_executor.close()
        if executor is not None:
            executor.close()
    parent_seconds = min(parent_rounds)
    offloaded_seconds = benchmark.stats.stats.min
    speedup = parent_seconds / offloaded_seconds

    benchmark.extra_info["requests"] = len(requests)
    benchmark.extra_info["latency_ms"] = LATENCY_SECONDS * 1000
    benchmark.extra_info["parent_seconds"] = round(parent_seconds, 4)
    benchmark.extra_info["parent_rounds"] = [round(seconds, 4) for seconds in parent_rounds]
    benchmark.extra_info["offloaded_seconds"] = round(offloaded_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["fleet_stats"] = stats.describe()

    print(
        f"\nFleet generation offload over {len(requests)} zero-shot requests "
        f"({MODEL_NAME} behind a {LATENCY_SECONDS * 1000:.0f}ms replay endpoint, "
        f"{FLEET_WORKERS} worker processes):"
        f"\n  parent-generation fleet      : {parent_seconds:6.2f} s"
        f"\n  fleet-offloaded generation   : {offloaded_seconds:6.2f} s"
        f"\n  speedup                      : {speedup:6.2f} x"
        f"\n  {stats.describe()}"
    )

    # Offload must not move a single score...
    for parent_eval in parent_evals:
        assert offloaded_eval.records == parent_eval.records

    # ...no job may be lost to the lease machinery on a healthy run...
    assert stats.pending == 0 and stats.claimed == 0 and stats.abandoned == 0

    # ...the workers must have reported their observed throughput (the
    # stealing scheduler's worker_relative_speeds feeds on this)...
    assert stats.worker_throughput, "no worker published a throughput EWMA"
    assert any(
        "generate_rps" in rates for rates in stats.worker_throughput.values()
    ), f"no worker observed generation throughput: {stats.worker_throughput}"

    # ...and offload must actually deliver the wall-clock win.
    assert speedup >= MIN_SPEEDUP, (
        f"offloaded generation speedup {speedup:.2f}x fell below the "
        f"{MIN_SPEEDUP}x floor (parent {parent_seconds:.2f}s, "
        f"offloaded {offloaded_seconds:.2f}s)"
    )


def test_distributed_rate_limit_is_respected():
    """N clients of one server-side bucket never exceed the global rate.

    Four threads — each with its own connection and its own
    :class:`DistributedTokenBucket`, exactly a worker process's view —
    hammer one bucket.  The grant timeline must show both properties a
    *local* bucket per worker would violate by a factor of four: the full
    span has a hard floor of ``(grants - burst) / rate`` seconds, and no
    sliding one-second window holds more than ``rate + burst`` grants.
    """

    rate, burst = 20.0, 2
    clients, acquires_each = 4, 10
    grants: list[float] = []
    lock = threading.Lock()

    with StoreServer() as server:
        server.start()

        def hammer() -> None:
            store = RemoteStore(server.address)
            bucket = DistributedTokenBucket(store, "bench-pacer", rate, burst=burst)
            try:
                for _ in range(acquires_each):
                    bucket.acquire()
                    with lock:
                        grants.append(time.monotonic())
            finally:
                store.close()

        threads = [threading.Thread(target=hammer) for _ in range(clients)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    total = clients * acquires_each
    assert len(grants) == total
    timeline = sorted(grant - start for grant in grants)
    span = timeline[-1] - timeline[0]
    floor = (total - burst) / rate
    print(
        f"\nDistributed pacing: {clients} clients x {acquires_each} acquires at "
        f"rate={rate}/s burst={burst}: span {span:.2f}s (floor {floor:.2f}s)"
    )

    # The global rate is a hard ceiling: all grants cannot fit in less
    # wall-clock than the bucket refills tokens (10% scheduling slack).
    assert span >= floor * 0.9, (
        f"{total} grants in {span:.2f}s beats the global rate floor of "
        f"{floor:.2f}s — the bucket is not globally enforced"
    )

    # And no burst-window violation: any sliding 1s window holds at most
    # rate * 1s + burst grants (plus one for boundary jitter).
    window, ceiling = 1.0, int(rate * 1.0) + burst + 1
    left = 0
    for right, stamp in enumerate(timeline):
        while stamp - timeline[left] > window:
            left += 1
        in_window = right - left + 1
        assert in_window <= ceiling, (
            f"{in_window} grants inside one {window}s window exceeds the "
            f"rate*window+burst ceiling of {ceiling}"
        )
