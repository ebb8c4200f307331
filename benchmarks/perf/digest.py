"""Record digests: what "the outputs are correct" means for one repeat.

Every repeat hashes the compared fields of every
:class:`~repro.pipeline.records.EvaluationRecord` — everything record
equality looks at, so the measured ``generate_seconds``/``score_seconds``
are left out — and the hashes must equal those of the serial, cache-off
reference evaluation of the same inputs.  Hashes are kept per record so
a mismatch names the first differing ``(model, problem_id,
sample_index)`` instead of just "something changed".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.pipeline.records import EvaluationRecord, record_to_dict

from benchmarks.perf.spec import GOLDEN

#: The record fields equality compares; measured timings are excluded.
COMPARED_FIELDS = tuple(
    field.name for field in dataclasses.fields(EvaluationRecord) if field.compare
)

#: model name -> ``[problem_id, sample_index, hash]`` per record, in order.
RecordHashes = dict[str, list[list]]


def record_hash(record: EvaluationRecord) -> str:
    """A short content hash of the record's compared fields."""

    data = record_to_dict(record)
    payload = json.dumps(
        {name: data[name] for name in COMPARED_FIELDS}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def hash_records(records: Mapping[str, Sequence[EvaluationRecord]]) -> RecordHashes:
    """Per-model, per-record hashes in the order the records were produced."""

    return {
        model: [[record.problem_id, record.sample_index, record_hash(record)] for record in rows]
        for model, rows in sorted(records.items())
    }


def first_mismatch(expected: RecordHashes, actual: RecordHashes) -> str | None:
    """Describe the first record where ``actual`` departs from ``expected``."""

    for model in sorted(set(expected) | set(actual)):
        if model not in expected:
            return f"unexpected records for model {model!r}"
        want, got = expected[model], actual.get(model, [])
        for index in range(max(len(want), len(got))):
            if index >= len(got):
                problem_id, sample_index, _ = want[index]
                return f"({model!r}, {problem_id!r}, {sample_index}) is missing"
            if index >= len(want):
                problem_id, sample_index, _ = got[index]
                return f"({model!r}, {problem_id!r}, {sample_index}) is not in the reference"
            if list(want[index]) != list(got[index]):
                problem_id, sample_index, _ = want[index]
                return f"first differing record: ({model!r}, {problem_id!r}, {sample_index})"
    return None


def golden_path(input_set: str) -> Path:
    return GOLDEN / f"{input_set}.json"


def load_golden(input_set: str) -> RecordHashes | None:
    """The committed seed-7 digests of ``input_set``, if recorded.

    Golden digests are kept per input set: every workload replaying the
    same recordings must produce the same records.
    """

    path = golden_path(input_set)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["models"]


def write_golden(input_set: str, seed: int, hashes: RecordHashes) -> Path:
    """Record ``hashes`` as the golden digests, one record per line."""

    models = ",\n".join(
        f"{json.dumps(model)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for model, rows in sorted(hashes.items())
    )
    path = golden_path(input_set)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f'{{"input_set": {json.dumps(input_set)}, "seed": {seed}, "models": {{\n{models}\n}}}}\n',
        encoding="utf-8",
    )
    return path
