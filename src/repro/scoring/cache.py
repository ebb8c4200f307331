"""The content-addressed global score cache.

At production scale most submissions repeat: the same extracted YAML is
scored against the same reference over and over — across runs, across
models (different models frequently emit identical answers), and across
tenants replaying the same leaderboard.  The in-run dedupe of
:func:`~repro.scoring.compiled.score_batch` and the score stage's memo
already collapse repeats *within* one run; this module makes the repeat
workload O(1) *across* runs by persisting every scored answer under a
content-addressed key:

``(compiled-reference digest, extracted-answer digest, scorer version,
unit-tests flag)``

* The **reference digest** (:func:`~repro.scoring.compiled.reference_digest`,
  equal to :attr:`~repro.scoring.compiled.CompiledReference.digest` but
  computed without compiling the reference) covers everything
  reference-side that a metric can see: the problem id, the labeled
  reference YAML, and the serialised unit-test program.  Two problems
  that differ in any scored input can never share an entry.
* The **answer digest** (:func:`~repro.scoring.compiled.answer_digest`)
  is taken over the *extracted* YAML — the post-processed text every
  metric operates on — so prose-wrapped variants of the same answer
  collapse to one entry, exactly mirroring the in-run dedupe key.
* The **scorer version** (:data:`SCORER_VERSION`) is the invalidation
  discipline: every metric is a pure function of (reference, answer), so
  a cached card is valid until the *scoring implementation* changes.
  **Bump the constant whenever any metric, the extractor's semantics, or
  the unit-test substrate changes behaviour** — entries written under
  other versions are ignored on load (and dropped by :meth:`ScoreCache.compact`),
  so a stale card can never be served, while same-version entries keep
  absorbing traffic across deployments.

Durability reuses the torn-tail-safe JSON-lines layer
(:class:`~repro.utils.jsonl.JsonlLog`) shared with the pipeline
checkpoints and the calibration store: loads stream and skip a torn or
corrupt tail, appends are one flush+fsync per batch and seal a torn
fragment into its own junk line, and :meth:`ScoreCache.compact` rewrites
atomically.  A killed run therefore always leaves a readable cache.

The cache layers *above* the in-run dedupe: a hit skips scoring entirely
(resolved in the parent process, so process-pool executors only ever see
misses), a miss is scored once and written back once per unique key.
``hits``/``misses``/``writes`` counters — global and per lookup scope
(the model name, for the leaderboard's cache column) — make the absorbed
traffic observable.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.scoring.aggregate import ScoreCard
from repro.utils.jsonl import JsonlLog

__all__ = [
    "SCORER_VERSION",
    "CacheStats",
    "ScoreCache",
    "is_score_cache_spec",
    "resolve_score_cache",
]

#: Version of the scoring implementation the cache keys against.
#:
#: Bump-to-invalidate discipline: increment this constant whenever a
#: change can alter any ScoreCard value for some (reference, answer) pair
#: — a metric formula, text normalisation, YAML extraction semantics, the
#: unit-test substrate's behaviour.  Entries persisted under a different
#: version are skipped on load and purged by :meth:`ScoreCache.compact`;
#: refactors that provably preserve every score do NOT bump it, so the
#: cache keeps absorbing repeat traffic across releases.
SCORER_VERSION = 1

#: Key of one cached card: (reference digest, answer digest, unit-tests flag).
#: The scorer version is per cache store, not per key — see ``ScoreCache``.
CacheKey = tuple[str, str, bool]


@dataclass
class CacheStats:
    """Lookup counters of one scope (one model) or of the whole store."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 when nothing was looked up."""

        return self.hits / self.lookups if self.lookups else 0.0


class ScoreCache:
    """Persistent, content-addressed ScoreCards shared across runs.

    Parameters
    ----------
    path:
        JSONL file backing the cache, or ``None`` for a purely in-memory
        store (still shared across every pipeline of one process).
    scorer_version:
        The version entries are written under and required on load;
        defaults to the module's :data:`SCORER_VERSION`.  Overriding it is
        how tests exercise the bump-to-invalidate discipline.

    Thread safety: lookups and write-backs take one lock — the scheduler's
    scoring consumer, several pipelines, and a monitoring reader may share
    one store.
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        scorer_version: int = SCORER_VERSION,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.scorer_version = scorer_version
        self._cards: dict[CacheKey, ScoreCard] = {}
        self._log = JsonlLog(self.path) if self.path is not None else None
        self._lock = threading.Lock()
        #: Lookup/write counters.  ``stale`` counts persisted entries that
        #: were ignored on load because their scorer version differs.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.stale = 0
        self._by_scope: dict[str, CacheStats] = {}
        if self._log is not None:
            for key, card in self._log.scan(self._decode):
                # Later lines win, mirroring append order: a re-written
                # entry (same key) converges on the newest card.
                self._cards[key] = card

    # -- persistence --------------------------------------------------------
    def _decode(self, line: bytes) -> tuple[CacheKey, ScoreCard]:
        payload = json.loads(line)
        if int(payload["scorer"]) != self.scorer_version:
            # A different scoring implementation wrote this entry; serving
            # it would mix score semantics, so it is invisible (and purged
            # on the next compact()).
            self.stale += 1
            raise ValueError("stale scorer version")
        key = (str(payload["ref"]), str(payload["ans"]), bool(payload["unit_tests"]))
        return key, ScoreCard(**payload["card"])

    def _encode(self, key: CacheKey, card: ScoreCard) -> str:
        ref, ans, unit_tests = key
        return (
            json.dumps(
                {
                    "ref": ref,
                    "ans": ans,
                    "unit_tests": unit_tests,
                    "scorer": self.scorer_version,
                    "card": {f: getattr(card, f) for f in card.__dataclass_fields__},
                }
            )
            + "\n"
        )

    # -- lookups ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cards)

    def __iter__(self) -> Iterator[CacheKey]:
        return iter(self._cards)

    def _scope_stats(self, scope: str) -> CacheStats:
        stats = self._by_scope.get(scope)
        if stats is None:
            stats = self._by_scope[scope] = CacheStats()
        return stats

    def get(
        self,
        reference_digest: str,
        answer_digest: str,
        run_unit_tests: bool = True,
        scope: str = "",
    ) -> ScoreCard | None:
        """The cached card for a key, or ``None`` (counted as hit/miss).

        ``scope`` labels the lookup for per-model accounting (the
        leaderboard's cache column); the empty scope still lands in the
        global counters.
        """

        key = (reference_digest, answer_digest, run_unit_tests)
        with self._lock:
            card = self._cards.get(key)
            stats = self._scope_stats(scope) if scope else None
            if card is None:
                self.misses += 1
                if stats is not None:
                    stats.misses += 1
            else:
                self.hits += 1
                if stats is not None:
                    stats.hits += 1
            return card

    def peek(
        self, reference_digest: str, answer_digest: str, run_unit_tests: bool = True
    ) -> ScoreCard | None:
        """Like :meth:`get` but without touching any counter."""

        with self._lock:
            return self._cards.get((reference_digest, answer_digest, run_unit_tests))

    # -- write-back ---------------------------------------------------------
    def put(
        self,
        reference_digest: str,
        answer_digest: str,
        card: ScoreCard,
        run_unit_tests: bool = True,
    ) -> None:
        """Store one freshly scored card (one durable append)."""

        self.put_batch([(reference_digest, answer_digest, card, run_unit_tests)])

    def put_batch(self, entries: Iterable[tuple[str, str, ScoreCard, bool]]) -> None:
        """Store a batch of freshly scored cards with one durable append.

        Keys already present are skipped (the first write wins — scoring
        is deterministic, so a second card for the same key is identical
        by construction), keeping repeat runs from growing the log.
        """

        with self._lock:
            fresh: list[tuple[CacheKey, ScoreCard]] = []
            for reference_digest, answer_digest, card, run_unit_tests in entries:
                key = (reference_digest, answer_digest, run_unit_tests)
                if key in self._cards:
                    continue
                self._cards[key] = card
                fresh.append((key, card))
            if not fresh:
                return
            self.writes += len(fresh)
            if self._log is not None:
                self._log.append(self._encode(key, card) for key, card in fresh)

    # -- maintenance --------------------------------------------------------
    def compact(self) -> None:
        """Atomically rewrite the file to the live, current-version entries.

        This is where entries invalidated by a :data:`SCORER_VERSION` bump
        (skipped on every load since) are physically dropped, and where a
        log grown by many partial runs collapses to one line per key.
        """

        with self._lock:
            if self._log is not None:
                self._log.rewrite(
                    self._encode(key, card) for key, card in self._cards.items()
                )
            self.stale = 0

    # -- observability ------------------------------------------------------
    def stats_for(self, scope: str) -> CacheStats:
        """Lookup counters of one scope (a model name); zeros when unseen."""

        with self._lock:
            return self._by_scope.get(scope, CacheStats())

    def stats(self) -> dict[str, int]:
        """Global counters: entries, hits, misses, writes, stale."""

        with self._lock:
            return {
                "entries": len(self._cards),
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "stale": self.stale,
            }

    def describe(self) -> str:
        """One-line human summary (the leaderboard report's footer)."""

        stats = self.stats()
        lookups = stats["hits"] + stats["misses"]
        rate = (100.0 * stats["hits"] / lookups) if lookups else 0.0
        return (
            f"score cache: {stats['entries']} entries, "
            f"{stats['hits']} hits / {stats['misses']} misses ({rate:.1f}% hit rate), "
            f"{stats['writes']} writes"
        )


def is_score_cache_spec(score_cache: object) -> bool:
    """Whether a value is an acceptable ``score_cache`` configuration —
    a cache instance, a JSONL path, or None.  The single definition both
    :func:`resolve_score_cache` and ``BenchmarkConfig`` validate against."""

    return score_cache is None or isinstance(score_cache, (ScoreCache, str, os.PathLike))


def resolve_score_cache(
    score_cache: "ScoreCache | str | os.PathLike[str] | None",
) -> ScoreCache | None:
    """Turn a config value (cache instance or JSONL path) into a store."""

    if not is_score_cache_spec(score_cache):
        raise TypeError(
            "score_cache must be a ScoreCache, a JSONL path, or None; "
            f"got {type(score_cache).__name__}"
        )
    if score_cache is None or isinstance(score_cache, ScoreCache):
        return score_cache
    return ScoreCache(score_cache)
