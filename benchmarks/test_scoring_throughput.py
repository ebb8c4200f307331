"""Scoring throughput — the compiled-reference batch engine vs the legacy loop.

The legacy path re-derives every reference artifact (label stripping,
normalisation, tokenisation, n-gram counting, YAML parsing, labeled-tree
construction) on each ``score_answer`` call; the compiled engine computes
them once per problem, parses each candidate exactly once, and dedupes
repeated responses.  This module records both timings so BENCH_*.json
tracks the scoring-performance trajectory, and acts as the regression
guard: batch scoring must never be slower than the legacy loop, and on a
cleanly compiled corpus it must be at least 2x faster.

The two sides alternate over :data:`ROUNDS` rounds, each starting from a
collected heap, and the ratio compares the fastest round of each, so a
burst of load from elsewhere on a shared machine slows one round rather
than one side.
"""

from __future__ import annotations

import gc
import time

from benchmarks.common import FAST_MODE, zero_shot_scoring_pairs
from repro.scoring.aggregate import score_answer_legacy
from repro.scoring.compiled import ReferenceStore, score_batch


#: Alternating legacy/batch rounds; the ratio is taken between the fastest
#: of each.
ROUNDS = 3


def test_scoring_throughput(benchmark):
    pairs = zero_shot_scoring_pairs()

    # Legacy baseline: one fully string-based score_answer call per pair.
    # pedantic calls this before every timed batch round, so the two sides
    # take turns.
    legacy_rounds = []
    legacy_cards = []

    def run_legacy():
        gc.collect()
        start = time.perf_counter()
        legacy_cards[:] = [score_answer_legacy(problem, response) for problem, response in pairs]
        legacy_rounds.append(time.perf_counter() - start)
        gc.collect()

    def run_batch():
        return score_batch(pairs, store=ReferenceStore())

    batch_cards = benchmark.pedantic(run_batch, setup=run_legacy, rounds=ROUNDS, iterations=1)
    legacy_seconds = min(legacy_rounds)
    batch_seconds = benchmark.stats.stats.min

    speedup = legacy_seconds / batch_seconds
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["legacy_seconds"] = round(legacy_seconds, 4)
    benchmark.extra_info["legacy_rounds"] = [round(seconds, 4) for seconds in legacy_rounds]
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)

    print(
        f"\nScoring throughput over {len(pairs)} zero-shot (problem, response) pairs:"
        f"\n  legacy per-call loop : {legacy_seconds:6.2f} s ({len(pairs) / legacy_seconds:7.0f} answers/s)"
        f"\n  compiled score_batch : {batch_seconds:6.2f} s ({len(pairs) / batch_seconds:7.0f} answers/s)"
        f"\n  speedup              : {speedup:5.2f} x"
    )

    # The optimisation must be invisible in the scores themselves.
    assert batch_cards == legacy_cards

    # Regression guard: the batch path must never lose to the legacy loop.
    assert speedup >= 1.0, f"batch scoring slower than legacy loop ({speedup:.2f}x)"
    if not FAST_MODE:
        # Acceptance threshold on the full corpus.
        assert speedup >= 2.0, f"expected >= 2x speedup, measured {speedup:.2f}x"
