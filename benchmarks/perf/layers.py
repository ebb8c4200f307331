"""The layers the traced repeat measures, and the per-layer metrics.

:func:`install` wraps the program's public functions and methods, layer by
layer, before a traced repeat builds its pipeline.  :func:`layer_metrics`
turns the recorded spans and counters — plus the public stats some layers
already keep (score-cache counters, :class:`MasterStats`, the fleet event
log) — into the ``per_layer`` metrics of ``BENCHMARK.json``.

``*_s`` metrics are self time: a span's duration minus its child spans.
Fleet workers and process-pool workers run out of reach of this process,
so those layers are seen from the coordinator's side only: its frames,
its executor ``map`` calls, the event log and the master's stats.
"""

from __future__ import annotations

import statistics
import threading
from typing import Any, Callable, Iterable

import repro.evalcluster.fleet as fleet
from repro.evalcluster.calibration import CalibrationStore
from repro.evalcluster.fleet import FleetExecutor, StoreServer
from repro.llm.remote import LiveEndpointModel, ReplayTransport
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.executors import ProcessExecutor, SerialExecutor
from repro.pipeline.pipeline import EvaluationPipeline
from repro.pipeline.planner import BatchSizer, CostPlanner
from repro.scoring.cache import ScoreCache
from repro.utils.jsonl import JsonlLog
from repro.utils.ratelimit import TokenBucket

from benchmarks.perf.trace import Tracer, patch_function, patch_method

#: Text-metric helpers as ``repro.scoring.compiled`` binds them.
TEXT_HELPERS = (
    "sentence_bleu_compiled",
    "compile_reference_ngrams",
    "yaml_tokenize",
    "scaled_edit_similarity_lines",
    "significant_lines",
    "normalize_text",
)
YAML_AWARE_HELPERS = ("key_value_exact_match_docs", "key_value_wildcard_match_docs")
#: The executors the workloads run on.
EXECUTORS = (SerialExecutor, ProcessExecutor, FleetExecutor)
#: Functions whose tasks score records out of process (invisible to spans).
REMOTE_SCORERS = ("run_timed_score_task", "run_generation_task")

MAIN_THREAD = "MainThread"
#: The multi-model scheduler's generation threads.
GENERATION_THREAD_PREFIX = "leaderboard-"
#: Connection threads of the in-process fleet store (server side of the wire).
STORE_THREAD_PREFIX = "fleet-store"


def _drained(method: Callable[..., Any]) -> Callable[..., Any]:
    """Run a generator method to completion inside the call."""

    def drained(*args: Any, **kwargs: Any) -> Any:
        return iter(list(method(*args, **kwargs)))

    return drained


def _materialised(method: Callable[..., Any], tracer: Tracer, counter: str) -> Callable[..., Any]:
    """Hand ``method`` its iterable argument as a list, counting the items."""

    def materialised(self: Any, items: Iterable[Any], *args: Any, **kwargs: Any) -> Any:
        rows = list(items)
        tracer.count(counter, len(rows))
        return method(self, rows, *args, **kwargs)

    return materialised


class _CountingSocket:
    """A socket stand-in that counts the bytes a frame moves."""

    def __init__(self, sock: Any, tracer: Tracer) -> None:
        self._sock = sock
        self._tracer = tracer

    def sendall(self, data: bytes) -> None:
        self._tracer.count("evalcluster.fleet.bytes_sent", len(data))
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self._tracer.count("evalcluster.fleet.bytes_recv", len(chunk))
        return chunk


def _framed(original: Callable[..., Any], tracer: Tracer, direction: str) -> Callable[..., Any]:
    """``send_frame``/``recv_frame`` traced on the coordinator's threads only.

    The self-hosted store serves its connections from threads of this
    process; their frames are the workers' traffic seen from the server
    and would double-count the wire.
    """

    traced = tracer.wrap("evalcluster.fleet.frame", original)

    def framed(sock: Any, *args: Any) -> Any:
        if tracer.enabled and not threading.current_thread().name.startswith(STORE_THREAD_PREFIX):
            tracer.count(f"evalcluster.fleet.frames_{direction}")
            return traced(_CountingSocket(sock, tracer), *args)
        return original(sock, *args)

    return framed


def install(tracer: Tracer) -> None:
    """Wrap every measured layer; call before the workload builds anything."""

    def count_tasks(tracer: Tracer, args: tuple) -> None:
        executor, fn, tasks = args[0], args[1], args[2]
        tracer.count("pipeline.executors.tasks", len(tasks))
        if getattr(executor, "requires_picklable_tasks", False) and getattr(fn, "__name__", "") in REMOTE_SCORERS:
            tracer.count("scoring.remote_scored", len(tasks))

    def count_pass(tracer: Tracer, result: Any) -> None:
        if result.passed:
            tracer.count("testexec.passes")

    def add_wait(tracer: Tracer, wait: float) -> None:
        tracer.count("utils.ratelimit.wait_s", float(wait))

    # Free functions, rebound wherever a module imported them.
    patch_function(tracer, "llm.prompt", "repro.llm.prompt", "build_prompt")
    patch_function(tracer, "postprocess", "repro.postprocess.extract", "extract_yaml")
    patch_function(tracer, "scoring.compile", "repro.scoring.compiled", "compile_reference", opaque=True)
    patch_function(tracer, "scoring.score", "repro.scoring.compiled", "score_extracted")
    patch_function(tracer, "yamlkit.parse", "repro.yamlkit.parsing", "load_all_documents")
    patch_function(tracer, "testexec", "repro.testexec.executor", "execute_unit_test", on_result=count_pass)
    for helper in TEXT_HELPERS:
        patch_function(
            tracer, "scoring.text", "repro.scoring.compiled", helper, only_in=("repro.scoring.compiled",)
        )
    for helper in YAML_AWARE_HELPERS:
        patch_function(tracer, "scoring.yaml_aware", "repro.scoring.yaml_aware", helper)

    # Endpoints and pacing.  The fleet's distributed bucket is debited by
    # the store server, which a self-hosted fleet runs in this process.
    patch_method(tracer, "llm.remote", LiveEndpointModel, "generate")
    patch_method(tracer, "llm.remote.endpoint", ReplayTransport, "__call__")
    patch_method(tracer, "utils.ratelimit", TokenBucket, "acquire", on_result=add_wait)
    patch_method(tracer, "utils.ratelimit", StoreServer, "_rate_acquire", on_result=add_wait)

    # Persistence.
    patch_method(tracer, "scoring.cache.load", ScoreCache, "__init__")
    patch_method(tracer, "scoring.cache.get", ScoreCache, "get")
    patch_method(tracer, "scoring.cache.put", ScoreCache, "put_batch")
    patch_method(tracer, "pipeline.checkpoint.put", PipelineCheckpoint, "put_batch")
    patch_method(tracer, "utils.jsonl.append", JsonlLog, "append")
    patch_method(
        tracer,
        "evalcluster.calibration.observe",
        CalibrationStore,
        "observe_batch",
        adapt=lambda method: _materialised(method, tracer, "evalcluster.calibration.observations"),
    )

    # Pipeline, executors, planning.
    patch_method(tracer, "pipeline.prepare", EvaluationPipeline, "prepare_batch")
    patch_method(tracer, "pipeline.finish", EvaluationPipeline, "finish_batch", adapt=_drained)
    for executor in EXECUTORS:
        patch_method(tracer, "pipeline.executors.map", executor, "map", on_call=count_tasks)
    patch_method(tracer, "pipeline.planner", CostPlanner, "plan")
    patch_method(tracer, "pipeline.planner", BatchSizer, "cut")

    # The coordinator's side of the fleet wire.
    for direction, attribute in (("sent", "send_frame"), ("recv", "recv_frame")):
        setattr(fleet, attribute, _framed(getattr(fleet, attribute), tracer, direction))


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(tracer: Tracer, wall_s: float, records: int, extra: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric of one traced repeat.

    ``extra`` carries what the workload read after its timed call:
    ``cache`` (score-cache counters), ``checkpoint_bytes``, ``retries``
    (endpoint retry counters) and ``fleet`` (master stats and the job
    times from the event log), each absent when the workload has none.
    """

    totals = tracer.totals()
    counters = tracer.counters

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def busy(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    cache = extra.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    fleet_extra = extra.get("fleet") or {}
    queue_waits = fleet_extra.get("queue_wait_ms", [])
    job_times = fleet_extra.get("job_ms", [])
    scored = calls("scoring.score") + counters["scoring.remote_scored"]
    testexec_calls = calls("testexec")
    generation_threads = {span.thread for span in tracer.spans if span.thread.startswith(GENERATION_THREAD_PREFIX)}
    layer_roots = tracer.root_seconds(MAIN_THREAD)

    return {
        "llm.prompt.calls": calls("llm.prompt"),
        "llm.prompt.busy_s": busy("llm.prompt"),
        "postprocess.calls": calls("postprocess"),
        "postprocess.busy_s": busy("postprocess"),
        "llm.remote.calls": calls("llm.remote"),
        "llm.remote.busy_s": busy("llm.remote"),
        "llm.remote.endpoint_wait_s": busy("llm.remote.endpoint"),
        "llm.remote.retries": extra.get("retries", 0),
        "llm.remote.errors": counters["llm.remote.errors"],
        "utils.ratelimit.acquires": calls("utils.ratelimit"),
        "utils.ratelimit.wait_s": counters["utils.ratelimit.wait_s"],
        "scoring.compile.calls": calls("scoring.compile"),
        "scoring.compile.busy_s": busy("scoring.compile"),
        "scoring.score.calls": calls("scoring.score"),
        "scoring.score.busy_s": busy("scoring.score"),
        "scoring.dedupe_ratio": scored / records if records else 0.0,
        "yamlkit.parse.calls": calls("yamlkit.parse"),
        "yamlkit.parse.busy_s": busy("yamlkit.parse"),
        "scoring.text.busy_s": busy("scoring.text"),
        "scoring.yaml_aware.busy_s": busy("scoring.yaml_aware"),
        "testexec.calls": testexec_calls,
        "testexec.busy_s": busy("testexec"),
        "testexec.pass_ratio": counters["testexec.passes"] / testexec_calls if testexec_calls else 0.0,
        "scoring.cache.load_s": busy("scoring.cache.load"),
        "scoring.cache.lookups": lookups,
        "scoring.cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "scoring.cache.get_s": busy("scoring.cache.get"),
        "scoring.cache.put_batches": calls("scoring.cache.put"),
        "scoring.cache.put_s": busy("scoring.cache.put"),
        "pipeline.checkpoint.batches": calls("pipeline.checkpoint.put"),
        "pipeline.checkpoint.put_s": busy("pipeline.checkpoint.put"),
        "pipeline.checkpoint.bytes": extra.get("checkpoint_bytes", 0),
        "utils.jsonl.appends": calls("utils.jsonl.append"),
        "utils.jsonl.append_s": busy("utils.jsonl.append"),
        "evalcluster.calibration.observations": counters["evalcluster.calibration.observations"],
        "evalcluster.calibration.observe_s": busy("evalcluster.calibration.observe"),
        "pipeline.batches": calls("pipeline.prepare"),
        "pipeline.prepare_s": busy("pipeline.prepare"),
        "pipeline.finish_s": busy("pipeline.finish"),
        "pipeline.executors.maps": calls("pipeline.executors.map"),
        "pipeline.executors.tasks": counters["pipeline.executors.tasks"],
        "pipeline.executors.map_s": busy("pipeline.executors.map"),
        "pipeline.scheduler.consumer_idle_s": max(
            0.0, wall_s - tracer.root_seconds(MAIN_THREAD, {"pipeline.prepare", "pipeline.finish"})
        ),
        "pipeline.scheduler.producer_idle_s": sum(
            max(0.0, wall_s - tracer.root_seconds(thread, {"pipeline.prepare"})) for thread in generation_threads
        ),
        "pipeline.planner.plan_s": busy("pipeline.planner"),
        "evalcluster.fleet.frames_sent": counters["evalcluster.fleet.frames_sent"],
        "evalcluster.fleet.frames_recv": counters["evalcluster.fleet.frames_recv"],
        "evalcluster.fleet.bytes_sent": counters["evalcluster.fleet.bytes_sent"],
        "evalcluster.fleet.bytes_recv": counters["evalcluster.fleet.bytes_recv"],
        "evalcluster.fleet.frame_s": busy("evalcluster.fleet.frame"),
        "evalcluster.fleet.jobs": len(job_times),
        "evalcluster.fleet.queue_wait_p50_ms": statistics.median(queue_waits) if queue_waits else 0.0,
        "evalcluster.fleet.queue_wait_p95_ms": _percentile(queue_waits, 0.95),
        "evalcluster.fleet.job_p50_ms": statistics.median(job_times) if job_times else 0.0,
        "evalcluster.fleet.job_p95_ms": _percentile(job_times, 0.95),
        "evalcluster.fleet.requeued": fleet_extra.get("requeued", 0),
        "evalcluster.fleet.abandoned": fleet_extra.get("abandoned", 0),
        "evalcluster.fleet.worker_generate_rps": fleet_extra.get("generate_rps", 0.0),
        "evalcluster.fleet.worker_score_rps": fleet_extra.get("score_rps", 0.0),
        "trace.unattributed_share": max(0.0, wall_s - layer_roots) / wall_s if wall_s else 0.0,
    }
