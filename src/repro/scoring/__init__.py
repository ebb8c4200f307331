"""Scoring pipeline: text-level, YAML-aware and function-level metrics (§3.2).

The six metrics of the paper are implemented here:

========================  =====================================================
Metric                    Module / function
========================  =====================================================
BLEU                      :func:`repro.scoring.text_level.bleu`
Edit distance             :func:`repro.scoring.text_level.edit_distance_score`
Exact match               :func:`repro.scoring.text_level.exact_match`
Key-value exact match     :func:`repro.scoring.yaml_aware.key_value_exact_match`
Key-value wildcard match  :func:`repro.scoring.yaml_aware.key_value_wildcard_match`
Unit test                 :func:`repro.scoring.function_level.unit_test_score`
========================  =====================================================

:func:`repro.scoring.aggregate.score_answer` runs all six on one answer and
returns a :class:`~repro.scoring.aggregate.ScoreCard`.  The compiled-reference
engine in :mod:`repro.scoring.compiled` precomputes the reference-side
artifacts once per problem; :func:`repro.scoring.compiled.score_batch` is the
batch entry point with response dedup and optional pool fan-out.
"""

from repro.scoring.aggregate import METRIC_NAMES, ScoreCard, score_answer, score_answer_legacy
from repro.scoring.cache import SCORER_VERSION, CacheStats, ScoreCache
from repro.scoring.compiled import (
    CompiledReference,
    ReferenceStore,
    answer_digest,
    compile_reference,
    get_compiled_reference,
    reference_digest,
    score_answer_compiled,
    score_batch,
)
from repro.scoring.function_level import unit_test_score
from repro.scoring.text_level import bleu, edit_distance_score, exact_match
from repro.scoring.yaml_aware import key_value_exact_match, key_value_wildcard_match

__all__ = [
    "METRIC_NAMES",
    "SCORER_VERSION",
    "CacheStats",
    "CompiledReference",
    "ReferenceStore",
    "ScoreCache",
    "ScoreCard",
    "answer_digest",
    "bleu",
    "compile_reference",
    "edit_distance_score",
    "exact_match",
    "get_compiled_reference",
    "key_value_exact_match",
    "key_value_wildcard_match",
    "reference_digest",
    "score_answer",
    "score_answer_compiled",
    "score_answer_legacy",
    "score_batch",
    "unit_test_score",
]
