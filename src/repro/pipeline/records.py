"""Per-record result types produced by the evaluation pipeline.

These types used to live in :mod:`repro.core.benchmark`; they moved here
when evaluation was decomposed into stages, because the pipeline — not the
benchmark driver — is what produces them.  ``repro.core.benchmark``
re-exports both names, so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.scoring.aggregate import METRIC_NAMES, ScoreCard

__all__ = [
    "EvaluationRecord",
    "ModelEvaluation",
    "merge_evaluations",
    "record_to_dict",
    "record_from_dict",
]


@dataclass(frozen=True)
class EvaluationRecord:
    """One scored response.

    ``generate_seconds``/``score_seconds`` are the *measured* wall-clock
    durations of the record's generation-side and scoring-side stage work.
    They are excluded from equality: two runs of the same request produce
    the same record even though their wall-clocks differ, which is what
    lets the executor/planner/scheduler equivalence suites assert
    bit-identity while every run still ships ground-truth durations for
    the cost-model calibration loop.
    """

    model_name: str
    problem_id: str
    base_id: str
    category: str
    application: str
    variant: str
    has_code_context: bool
    solution_lines: int
    question_tokens: int
    shots: int
    sample_index: int
    scores: ScoreCard
    raw_response: str = ""
    error: str = ""
    generate_seconds: float = field(default=0.0, compare=False)
    score_seconds: float = field(default=0.0, compare=False)

    @property
    def key(self) -> tuple[str, str, int, int]:
        """Identity of the unit of work: (model, problem, shots, sample)."""

        return (self.model_name, self.problem_id, self.shots, self.sample_index)

    @property
    def measured_seconds(self) -> float:
        """Total measured stage seconds (generation plus scoring) — the
        ground-truth duration the calibration loop feeds back into the
        cost model's per-problem predictions."""

        return self.generate_seconds + self.score_seconds


def record_to_dict(record: EvaluationRecord) -> dict[str, Any]:
    """Serialise a record (checkpoint format); inverse of :func:`record_from_dict`."""

    data = {f: getattr(record, f) for f in record.__dataclass_fields__ if f != "scores"}
    data["scores"] = {f: getattr(record.scores, f) for f in record.scores.__dataclass_fields__}
    return data


def record_from_dict(data: Mapping[str, Any]) -> EvaluationRecord:
    """Rebuild a record from its checkpoint dictionary."""

    payload = dict(data)
    payload["scores"] = ScoreCard(**payload["scores"])
    return EvaluationRecord(**payload)


@dataclass
class ModelEvaluation:
    """All scored responses of one model plus aggregation helpers."""

    model_name: str
    records: list[EvaluationRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    # -- filters ------------------------------------------------------------
    def filter(self, **criteria: object) -> list[EvaluationRecord]:
        """Select records matching every keyword criterion (attribute equality)."""

        out = []
        for record in self.records:
            if all(getattr(record, key) == value for key, value in criteria.items()):
                out.append(record)
        return out

    def first_samples(self) -> list[EvaluationRecord]:
        """Records of the first sample only (the zero-/few-shot view)."""

        return [r for r in self.records if r.sample_index == 0]

    # -- aggregations ---------------------------------------------------------
    @property
    def coverage(self) -> float:
        """Fraction of first-sample records that were actually scored.

        A record carrying an ``error`` — a failed endpoint request, or a
        degraded fleet slot (job abandoned or quarantined) — contributes
        nothing to the metric means; ``coverage`` is what makes that loss
        visible on the leaderboard instead of silently shrinking the
        denominator.  ``1.0`` when every record scored (or there are none).
        """

        records = self.first_samples()
        if not records:
            return 1.0
        return sum(1 for r in records if not r.error) / len(records)

    def mean_scores(self, records: Sequence[EvaluationRecord] | None = None) -> dict[str, float]:
        """Average every metric over ``records`` (default: first samples).

        Error-marked records (including degraded fleet slots) are
        excluded: their zero scores describe an infrastructure failure,
        not the model, and averaging them in would punish the model for
        a flaky fleet.  The exclusion is reported via :attr:`coverage`.
        """

        records = self.first_samples() if records is None else list(records)
        records = [r for r in records if not r.error]
        if not records:
            return {name: 0.0 for name in METRIC_NAMES}
        # One pass over the records, collecting every metric column as we go.
        columns: dict[str, list[float]] = {name: [] for name in METRIC_NAMES}
        for record in records:
            scores = record.scores
            for name in METRIC_NAMES:
                columns[name].append(getattr(scores, name))
        return {name: float(np.mean(values)) for name, values in columns.items()}

    def pass_count(self, variant: str | None = None, shots: int | None = None) -> int:
        """Number of problems whose first sample passes the unit test."""

        count = 0
        for record in self.first_samples():
            if variant is not None and record.variant != variant:
                continue
            if shots is not None and record.shots != shots:
                continue
            if record.scores.unit_test >= 1.0:
                count += 1
        return count

    def unit_test_score(self, variant: str | None = None) -> float:
        """Mean unit-test score over first samples (optionally one variant)."""

        records = self.first_samples()
        if variant is not None:
            records = [r for r in records if r.variant == variant]
        if not records:
            return 0.0
        return float(np.mean([r.scores.unit_test for r in records]))


def merge_evaluations(evaluations: Sequence[ModelEvaluation]) -> ModelEvaluation:
    """Recombine per-shard evaluations of one model, in shard order.

    Because a :class:`~repro.pipeline.planner.ShardPlan` split is
    contiguous, concatenating the shards' records reproduces the unsharded
    record order — and therefore an unsharded run's
    :class:`ModelEvaluation` — bit-identically.  Use this when shards were
    evaluated independently (separate processes or machines) rather than
    through :class:`~repro.pipeline.scheduler.MultiModelScheduler`.
    """

    if not evaluations:
        raise ValueError(
            "no evaluations to merge: expected one ModelEvaluation per shard, got an "
            "empty sequence (did every shard of the run fail before producing records?)"
        )
    sizes = [len(evaluation.records) for evaluation in evaluations]
    first_name = evaluations[0].model_name
    for index, evaluation in enumerate(evaluations):
        if evaluation.model_name != first_name:
            raise ValueError(
                f"cannot merge evaluations of different models: shard 0 is "
                f"{first_name!r} but shard {index} is {evaluation.model_name!r} "
                f"(shard sizes: {sizes}); merge_evaluations recombines shards of "
                f"ONE model — combine models in a BenchmarkResult instead"
            )
    records: list[EvaluationRecord] = []
    for evaluation in evaluations:
        records.extend(evaluation.records)
    return ModelEvaluation(model_name=first_name, records=records)
