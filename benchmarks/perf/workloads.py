"""The four workloads: generated inputs, set-up, and the one timed call.

Every workload replays recorded endpoint responses.  :func:`prepare`
builds them once per (input set, seed) from the simulated registry
models, evaluates them serially with no cache to get the reference
digests, and fills the warm score cache from that reference; the program
under test only ever sees these generated inputs, through
:class:`~repro.llm.remote.LiveEndpointModel` and
:class:`~repro.llm.remote.ReplayTransport`.

A repeat (``rep.py``) builds one :class:`Workload`, calls ``setup``,
times ``timed`` and then calls ``teardown`` for the stats the per-layer
metrics need.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.dataset.builder import build_dataset
from repro.dataset.problem import Problem, ProblemSet
from repro.dataset.schema import ORIGINAL_CATEGORY_COUNTS, Category, Variant
from repro.llm.interface import GenerationRequest
from repro.llm.registry import available_models
from repro.llm.remote import LiveEndpointModel, ModelSpec, ReplayTransport
from repro.pipeline import EvaluationPipeline
from repro.pipeline.records import EvaluationRecord
from repro.scoring.cache import ScoreCache
from repro.scoring.compiled import ReferenceStore, answer_digest, get_compiled_reference
from repro.utils.ratelimit import TokenBucket

from benchmarks.perf.digest import hash_records
from benchmarks.perf.replay import RecordedEndpoint
from benchmarks.perf.spec import ARTIFACTS, ROOT, SRC

#: The corpus is the paper's Table 2 category mix at a third of its size
#: (112 originals, 336 questions with the augmented variants), so that
#: several fresh-process repeats of every workload fit one run.
CORPUS_DIVISOR = 3

#: Every endpoint paces itself with a wall-clock bucket, as a live one
#: must; the rate is far above what the workloads reach, so pacing is
#: exercised on every request without ever throttling.
PACING_RATE = 50_000.0
PACING_BURST = 64

#: Leaderboard endpoint latency, with gpt-4 as the skewed straggler.
LEADERBOARD_LATENCY = 0.001
STRAGGLER = "gpt-4"
STRAGGLER_LATENCY = 0.004

FLEET_WORKERS = 2
FLEET_LATENCY = 0.002
FLEET_RATE = 1000.0
FLEET_BURST = 16


def category_counts(tiny: bool) -> dict[Category, int]:
    if tiny:
        return {category: 1 for category in Category}
    return {
        category: max(1, round(count / CORPUS_DIVISOR))
        for category, count in ORIGINAL_CATEGORY_COUNTS.items()
    }


@dataclass(frozen=True)
class InputSet:
    """Which models a workload replays, over which questions."""

    name: str
    models: tuple[str, ...]
    originals_only: bool

    def problems(self, dataset: ProblemSet) -> list[Problem]:
        if self.originals_only:
            return [problem for problem in dataset if problem.variant is Variant.ORIGINAL]
        return list(dataset)


GPT4_CORPUS = InputSet("gpt4-corpus", ("gpt-4",), originals_only=False)
LEADERBOARD = InputSet("leaderboard", tuple(available_models()), originals_only=True)


@dataclass
class Inputs:
    """A prepared input set as one repeat loads it."""

    seed: int
    dataset: ProblemSet
    problems: list[Problem]
    prep_dir: Path

    @classmethod
    def load(cls, input_set: InputSet, seed: int, tiny: bool, prep_dir: Path) -> "Inputs":
        dataset = build_dataset(seed=seed, category_counts=category_counts(tiny))
        return cls(seed, dataset, input_set.problems(dataset), prep_dir)

    def endpoint(self, model: str, latency: float = 0.0) -> LiveEndpointModel:
        """An in-process replay endpoint over ``model``'s recordings."""

        recordings = json.loads(recordings_path(self.prep_dir, model).read_text(encoding="utf-8"))
        return LiveEndpointModel(
            model,
            ReplayTransport(recordings, latency_seconds=latency),
            limiter=TokenBucket(PACING_RATE, burst=PACING_BURST, virtual_clock=False),
        )


# ---------------------------------------------------------------------------
# Preparation (once per input set and seed, outside every timed repeat)
# ---------------------------------------------------------------------------


def fingerprint() -> str:
    """Content hash of the program and the benchmark: prepared inputs from
    another version of either are never reused."""

    digest = hashlib.sha256()
    for base in (SRC / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def prepare(input_set: InputSet, seed: int, tiny: bool) -> Path:
    """Build (or reuse) the recorded responses, reference digests and warm
    score cache of ``input_set`` at ``seed``; returns their directory."""

    version = fingerprint()
    key = f"{input_set.name}-s{seed}{'-tiny' if tiny else ''}-{version}"
    directory = ARTIFACTS / "prep" / key
    if (directory / "reference.json").is_file():
        return directory
    if directory.parent.is_dir():
        for stale in directory.parent.iterdir():
            if not stale.name.endswith((version, ".tmp")):
                shutil.rmtree(stale, ignore_errors=True)
    staging = directory.with_name(f"{key}.{os.getpid()}.tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)

    dataset = build_dataset(seed=seed, category_counts=category_counts(tiny))
    problems = input_set.problems(dataset)
    registry = CloudEvalBenchmark(dataset, BenchmarkConfig(seed=seed))
    for name in input_set.models:
        model, requests = registry.requests(name, problems=problems)
        # Keyed by the prompt the pipeline under test will send.
        recordings = {
            GenerationRequest(problem=request.problem).prompt(): model.generate(
                request.problem, shots=request.shots, sample_index=request.sample_index
            )
            for request in requests
        }
        path = recordings_path(staging, name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(recordings), encoding="utf-8")

    # The reference: a serial, cache-off evaluation of the same replay.
    inputs = Inputs(seed, dataset, problems, staging)
    reference = CloudEvalBenchmark(dataset, BenchmarkConfig(seed=seed))
    records = {
        name: reference.evaluate_model(inputs.endpoint(name), problems=problems).records
        for name in input_set.models
    }

    # The warm cache holds exactly the reference's cards (unit tests on).
    by_id = {problem.problem_id: problem for problem in problems}
    ScoreCache(staging / "warm_cache.jsonl").put_batch(
        (
            get_compiled_reference(by_id[record.problem_id]).digest,
            answer_digest(record.scores.extracted_yaml),
            record.scores,
            True,
        )
        for rows in records.values()
        for record in rows
    )
    (staging / "reference.json").write_text(json.dumps(hash_records(records)), encoding="utf-8")
    try:
        os.replace(staging, directory)
    except OSError:  # another run prepared the same inputs first
        shutil.rmtree(staging, ignore_errors=True)
    return directory


def load_reference(prep_dir: Path) -> dict[str, list[list]]:
    return json.loads((prep_dir / "reference.json").read_text(encoding="utf-8"))


def recordings_path(prep_dir: Path, model: str) -> Path:
    """The prepared ``prompt -> response`` map of ``model``."""

    return prep_dir / "recordings" / f"{model}.json"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One repeat of a workload, in the repeat's fresh process.

    ``BENCHMARK.json`` and ``README.md`` record why each workload exists.
    """

    name = ""
    input_set = GPT4_CORPUS

    def __init__(self, inputs: Inputs, prep_dir: Path, run_dir: Path, tiny: bool) -> None:
        self.inputs = inputs
        self.prep_dir = prep_dir
        self.run_dir = run_dir
        self.tiny = tiny

    def setup(self) -> None:
        """Everything a real invocation pays before its evaluation call."""

    def timed(self) -> dict[str, list[EvaluationRecord]]:
        raise NotImplementedError

    def teardown(self) -> dict[str, Any]:
        """Release resources; return the stats the per-layer metrics read."""

        return {}


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(
            item.stat().st_size
            for item in path.rglob("*")
            if item.is_file() and not item.name.endswith(".lock")
        )
    return 0


class ColdScore(Workload):
    """A one-shot evaluation: every pair is scored, cached and checkpointed."""

    name = "cold_score"

    def setup(self) -> None:
        self.endpoint = self.inputs.endpoint("gpt-4")
        self.cache_path = self.run_dir / "score_cache.jsonl"
        self.checkpoint_path = self.run_dir / "checkpoint.jsonl"

    def _benchmark(self) -> CloudEvalBenchmark:
        config = BenchmarkConfig(seed=self.inputs.seed, score_cache=str(self.cache_path))
        return CloudEvalBenchmark(self.inputs.dataset, config)

    def timed(self) -> dict[str, list[EvaluationRecord]]:
        self.benchmark = self._benchmark()
        evaluation = self.benchmark.evaluate_model(
            self.endpoint, problems=self.inputs.problems, checkpoint=str(self.checkpoint_path)
        )
        return {evaluation.model_name: evaluation.records}

    def teardown(self) -> dict[str, Any]:
        return {
            "cache": self.benchmark.score_cache().stats(),
            "checkpoint_bytes": _tree_bytes(self.checkpoint_path),
            "retries": self.endpoint.retries,
        }


class WarmRerun(ColdScore):
    """The same requests against a fresh copy of the prefilled score cache."""

    name = "warm_rerun"

    def setup(self) -> None:
        super().setup()
        shutil.copyfile(self.prep_dir / "warm_cache.jsonl", self.cache_path)

    def timed(self) -> dict[str, list[EvaluationRecord]]:
        self.benchmark = self._benchmark()
        evaluation = self.benchmark.evaluate_model(self.endpoint, problems=self.inputs.problems)
        return {evaluation.model_name: evaluation.records}


class Leaderboard(Workload):
    """Twelve replayed models on a process pool, gpt-4 the skewed straggler."""

    name = "leaderboard"
    input_set = LEADERBOARD

    def setup(self) -> None:
        self.endpoints = [
            self.inputs.endpoint(name, STRAGGLER_LATENCY if name == STRAGGLER else LEADERBOARD_LATENCY)
            for name in self.input_set.models
        ]
        self.cache_path = self.run_dir / "score_cache.jsonl"
        self.calibration_path = self.run_dir / "calibration.jsonl"
        self.checkpoint_dir = self.run_dir / "checkpoints"

    def timed(self) -> dict[str, list[EvaluationRecord]]:
        config = BenchmarkConfig(
            seed=self.inputs.seed,
            executor="process",
            max_workers=2,
            shards=2,
            shard_by="cost",
            batch_by="cost",
            steal=True,
            score_cache=str(self.cache_path),
            calibration=str(self.calibration_path),
        )
        self.benchmark = CloudEvalBenchmark(self.inputs.dataset, config)
        result = self.benchmark.evaluate_models(
            models=self.endpoints,
            problems=self.inputs.problems,
            checkpoint=str(self.checkpoint_dir / "leaderboard.jsonl"),
        )
        return {name: evaluation.records for name, evaluation in result.evaluations.items()}

    def teardown(self) -> dict[str, Any]:
        return {
            "cache": self.benchmark.score_cache().stats(),
            "checkpoint_bytes": _tree_bytes(self.checkpoint_dir),
            "retries": sum(endpoint.retries for endpoint in self.endpoints),
        }


class FleetOffload(Workload):
    """gpt-4 generated and scored on a self-hosted fleet under global pacing."""

    name = "fleet_offload"

    def setup(self) -> None:
        # Imported here: the other workloads, like a real single-model run,
        # never load the fleet.
        from repro.evalcluster.fleet import FleetExecutor

        self.spec = ModelSpec(
            name="gpt-4",
            transport=RecordedEndpoint(str(recordings_path(self.prep_dir, "gpt-4")), FLEET_LATENCY),
            rate_limit=FLEET_RATE,
            burst=FLEET_BURST,
        )
        self.model = self.spec.build()
        registry = CloudEvalBenchmark(self.inputs.dataset, BenchmarkConfig(seed=self.inputs.seed))
        _, self.requests = registry.requests(self.model, problems=self.inputs.problems)
        workers = 1 if self.tiny else FLEET_WORKERS
        self.events_path = self.run_dir / "fleet_events.jsonl"
        self.executor = FleetExecutor(
            num_workers=workers, lease_seconds=60.0, heartbeat_seconds=0.25, event_log=self.events_path
        ).warm(self.inputs.problems)
        # Boot the store and every worker (each warms its references before
        # its first heartbeat) so the timed call starts on a ready fleet.
        deadline = time.monotonic() + 60.0
        while True:
            self.executor.map(math.factorial, list(range(4 * workers)))
            stats = self.executor.stats()
            if len(stats.heartbeat_ages) >= workers:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"only {len(stats.heartbeat_ages)} of {workers} fleet workers started")
            time.sleep(0.05)
        self.events_offset = _tree_bytes(self.events_path)

    def timed(self) -> dict[str, list[EvaluationRecord]]:
        pipeline = EvaluationPipeline(
            self.model,
            model_spec=self.spec,
            executor=self.executor,
            store=ReferenceStore(),
            run_unit_tests=True,
        )
        try:
            evaluation = pipeline.run(self.requests)
        finally:
            pipeline.close()
        return {evaluation.model_name: evaluation.records}

    def teardown(self) -> dict[str, Any]:
        stats = self.executor.stats()
        self.executor.close()
        throughput = list(stats.worker_throughput.values())
        queue_wait_ms, job_ms = _job_times(self.events_path, self.events_offset)
        return {
            "fleet": {
                "requeued": stats.requeued,
                "abandoned": stats.abandoned,
                "generate_rps": _mean(rates.get("generate_rps") for rates in throughput),
                "score_rps": _mean(rates.get("score_rps") for rates in throughput),
                "queue_wait_ms": queue_wait_ms,
                "job_ms": job_ms,
            },
        }


def _mean(values: Any) -> float:
    present = [float(value) for value in values if value is not None]
    return sum(present) / len(present) if present else 0.0


def _job_times(path: Path, offset: int) -> tuple[list[float], list[float]]:
    """Submit→claim and claim→done milliseconds of the jobs submitted after
    byte ``offset`` of the fleet event log (the timed call's jobs).

    The executor numbers jobs in submission order and a ``submit`` event
    covers the next ``count`` numbers, so the log is replayed from the
    start to keep count.  The coordinator observes claims once per poll
    interval; a job that was claimed and finished between two polls has
    no ``claim`` event and is left out.
    """

    submitted: dict[int, float] = {}
    claimed: dict[int, float] = {}
    done: dict[int, float] = {}
    numbered = position = 0
    with path.open("rb") as handle:
        for line in handle:
            in_timed_call = position >= offset
            position += len(line)
            if not line.strip():
                continue
            event = json.loads(line)
            if event["event"] == "submit":
                if in_timed_call:
                    submitted.update(
                        {number: event["t"] for number in range(numbered + 1, numbered + 1 + event["count"])}
                    )
                numbered += event["count"]
            elif event["event"] in ("claim", "done"):
                number = int(event["job"].rsplit("-", 1)[1])
                (claimed if event["event"] == "claim" else done).setdefault(number, event["t"])
    observed = [number for number in submitted if number in claimed and number in done]
    queue_wait_ms = [(claimed[number] - submitted[number]) * 1000.0 for number in observed]
    job_ms = [(done[number] - claimed[number]) * 1000.0 for number in observed]
    return queue_wait_ms, job_ms


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (ColdScore, WarmRerun, Leaderboard, FleetOffload)
}
