"""Cold vs warm scoring through the content-addressed global score cache.

The cache's headline claim: rerunning an evaluation over an unchanged
corpus must be dominated by cache lookups, not re-scoring.  Generation is
driven through a :class:`~repro.llm.remote.LiveEndpointModel` whose
transport replays recorded responses — the deployment the cache is built
for, where answers come over the wire and the scoring engine is the local
cost — so the guard times the side the cache owns rather than the
simulated models' YAML perturbation machinery (which would dominate both
runs equally and hide a real cache regression behind a constant).

The guard is a same-machine, same-process speedup *ratio*: a cold run
that scores every (reference, answer) pair and writes the cards back,
then a warm run in a fresh benchmark that reloads the store from disk and
serves every pair from it.  Only a real loss of cache coverage (digest
instability, a missed write-back, an accidental version skew) can push
the ratio below the floor; a slow runner cannot.

Both runs must produce bit-identical records — the cache is a pure
optimisation — and the warm store must report full coverage (zero misses,
zero writes).  The cache file the run produces is kept on disk
(``BENCH_score_cache.jsonl`` by default) so CI can upload it as an
artifact next to the calibration store.
"""

from __future__ import annotations

import os
import time

from benchmarks.common import artifact_path, bench_dataset
from repro.core import BenchmarkConfig, CloudEvalBenchmark
from repro.llm.interface import GenerationRequest
from repro.llm.registry import get_model
from repro.llm.remote import LiveEndpointModel
from repro.scoring.cache import ScoreCache
from repro.utils.ratelimit import TokenBucket

MODEL = "gpt-4"

#: The guard: a warm rerun over the unchanged corpus must beat the cold
#: scoring run end to end by at least this factor (measured 7.4-7.6x in
#: three runs on a shared 2-vCPU Xeon; the warm run pays only prompting,
#: transport replay, extraction and digest lookups, and compiles no
#: reference).
MIN_SPEEDUP = 3.0

#: Where the guard leaves the cache for the CI artifact.
SCORE_CACHE_PATH = os.environ.get("REPRO_SCORE_CACHE") or artifact_path("BENCH_score_cache.jsonl")


def _recorded_endpoint(dataset) -> LiveEndpointModel:
    """A live endpoint replaying the simulated model's recorded responses."""

    inner = get_model(MODEL)
    responses = {
        GenerationRequest(problem=problem).prompt(): inner.generate(problem)
        for problem in dataset
    }
    return LiveEndpointModel(
        MODEL,
        responses.__getitem__,
        limiter=TokenBucket(rate=50_000.0, burst=64, virtual_clock=False),
    )


def _evaluate(dataset, endpoint):
    benchmark = CloudEvalBenchmark(
        dataset, BenchmarkConfig(score_cache=SCORE_CACHE_PATH)
    )
    evaluation = benchmark.evaluate_model(endpoint)
    return evaluation, benchmark.score_cache()


def test_warm_cache_rerun_beats_cold_scoring(benchmark):
    dataset = bench_dataset()
    if os.path.exists(SCORE_CACHE_PATH):
        os.remove(SCORE_CACHE_PATH)
    endpoint = _recorded_endpoint(dataset)

    # Untimed pass with the cache disabled: warms every process-level
    # cache the two timed runs share (parsed manifests, compiled
    # references, prompt templates), so the cold run pays scoring but no
    # one-time costs the warm run would skip for free.
    CloudEvalBenchmark(dataset, BenchmarkConfig()).evaluate_model(endpoint)

    # --- cold: every pair is scored and written back ---------------------
    start = time.perf_counter()
    cold, cold_store = _evaluate(dataset, endpoint)
    cold_seconds = time.perf_counter() - start
    assert cold_store.hits == 0
    assert cold_store.writes == cold_store.misses > 0

    # --- warm: a fresh benchmark reloads the store from disk -------------
    result = benchmark.pedantic(
        lambda: _evaluate(dataset, endpoint), rounds=1, iterations=1
    )
    warm, warm_store = result
    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds

    benchmark.extra_info["problems"] = len(cold.records)
    benchmark.extra_info["entries"] = len(warm_store)
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print(
        f"\nScore cache over {len(cold.records)} records ({MODEL} replay endpoint):"
        f"\n  cold (score + write) : {cold_seconds:6.2f} s"
        f"\n  warm (cache served)  : {warm_seconds:6.2f} s"
        f"\n  speedup              : {speedup:6.2f} x"
        f"\n  cache store          : {SCORE_CACHE_PATH} ({len(warm_store)} entries)"
    )

    # The cache is a pure optimisation: not a single record may move.
    assert warm.records == cold.records

    # Full coverage: the warm run re-scored nothing and wrote nothing.
    assert warm_store.misses == 0 and warm_store.writes == 0
    assert warm_store.hits > 0

    # The headline ratio.
    assert speedup >= MIN_SPEEDUP, (
        f"warm-cache speedup {speedup:.2f}x fell below the {MIN_SPEEDUP}x floor "
        f"(cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s)"
    )

    # The artifact CI uploads must exist and reload cleanly.
    assert len(ScoreCache(SCORE_CACHE_PATH)) == len(warm_store)
