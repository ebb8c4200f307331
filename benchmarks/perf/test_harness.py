"""Fast self-test of the benchmark harness.

One tiny run covers every workload end to end (one problem per category,
4 seconds of untraced repeats and one traced repeat, a one-worker fleet); the digest and
``compare`` rules are checked on synthetic inputs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf.compare import verdict
from benchmarks.perf.digest import first_mismatch, hash_records
from benchmarks.perf.spec import ROOT, SPEC_PATH, Metric, load_spec
from benchmarks.perf.workloads import GPT4_CORPUS, prepare
from repro.pipeline.records import EvaluationRecord
from repro.scoring.aggregate import ScoreCard


def _perf(*args: str, cwd: Path = ROOT, env: dict[str, str] | None = None) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory: pytest.TempPathFactory) -> tuple[subprocess.CompletedProcess[str], dict]:
    out = tmp_path_factory.mktemp("perf") / "runs.jsonl"
    proc = _perf("run", "--tiny", "--repeats", "1", "--seconds", "4", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc, json.loads(out.read_text(encoding="utf-8").splitlines()[-1])


def test_every_metric_is_printed_with_its_unit(tiny_run) -> None:
    proc, result = tiny_run
    # One repeat was asked for; the 4-second window ran more of the
    # quickest workload's (a tiny repeat of it takes about half a second).
    assert result["workloads"]["cold_score"]["metrics"]["records_per_s"]["n"] >= 2
    spec = load_spec()
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] > 0 and final["failed"] == 0
    for workload in spec.workloads:
        summary = result["workloads"][workload]
        assert summary["correct"], summary["problems"]
        for metric in spec.end_to_end:
            assert summary["metrics"][metric.name]["unit"] == metric.unit
            assert summary["metrics"][metric.name]["value"] > 0
            assert re.search(rf"{re.escape(metric.name)}\s+\S+\s+{re.escape(metric.unit)}\s", proc.stdout)
        for metric in spec.per_layer:
            assert final["metrics"][f"{workload}.{metric.name}"]["unit"] == metric.unit
            assert re.search(rf"\s{re.escape(metric.unit)}\s+{re.escape(metric.name)}\n", proc.stdout)
        trace = ROOT / "benchmarks" / "artifacts" / "perf" / f"trace-{workload}.json"
        assert json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]


def _record(problem_id: str, unit_test: float = 1.0, score_seconds: float = 0.0) -> EvaluationRecord:
    card = ScoreCard(
        problem_id=problem_id, bleu=0.5, edit_distance=0.5, exact_match=0.0,
        kv_exact=0.0, kv_wildcard=0.5, unit_test=unit_test, extracted_yaml="kind: Pod\n",
    )
    return EvaluationRecord(
        model_name="gpt-4", problem_id=problem_id, base_id=problem_id, category="pod",
        application="kubernetes", variant="original", has_code_context=False,
        solution_lines=1, question_tokens=10, shots=0, sample_index=0, scores=card,
        score_seconds=score_seconds,
    )


def test_a_tampered_record_fails_the_digest_check(tiny_run) -> None:
    records = [_record("pod-0000-original"), _record("pod-0001-original")]
    reference = hash_records({"gpt-4": records})
    retimed = [_record("pod-0000-original", score_seconds=3.0), records[1]]
    assert first_mismatch(reference, hash_records({"gpt-4": retimed})) is None
    tampered = [records[0], _record("pod-0001-original", unit_test=0.0)]
    assert "('gpt-4', 'pod-0001-original', 0)" in first_mismatch(reference, hash_records({"gpt-4": tampered}))

    # End to end: a reference that disagrees with the program fails the run.
    prep = prepare(GPT4_CORPUS, seed=7, tiny=True)
    stored = json.loads((prep / "reference.json").read_text(encoding="utf-8"))
    problem_id, sample_index, digest = stored["gpt-4"][3]
    stored["gpt-4"][3] = [problem_id, sample_index, "0" * len(digest)]
    try:
        (prep / "reference.json").write_text(json.dumps(stored), encoding="utf-8")
        proc = _perf("run", "--tiny", "--repeats", "1", "--seconds", "0", "--workload", "cold_score")
    finally:
        shutil.rmtree(prep)  # a prepared-input cache: rebuilt on the next run
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert f"('gpt-4', '{problem_id}', {sample_index})" in proc.stdout


def test_compare_scores_win_tie_and_unresolved() -> None:
    throughput = Metric("records_per_s", "records/s", "higher", 0.1)
    parent = [100.0 + 0.5 * (i % 3) for i in range(10)]
    win = verdict(throughput, parent, [110.0 + 0.5 * (i % 3) for i in range(10)])
    assert (win.outcome, win.wins) == ("gain", 10)
    tie = verdict(throughput, parent, list(reversed(parent)))
    assert tie.outcome == "unchanged"
    noisy = [80.0, 120.0] * 5
    assert verdict(throughput, noisy, list(reversed(noisy))).outcome == "unresolved"
    assert verdict(throughput, parent, [85.0] * 10).outcome == "regression"
    # Slower on every pair but within the bound: clear, yet not a regression.
    assert verdict(throughput, parent, [95.0 + 0.5 * (i % 3) for i in range(10)]).outcome == "loss"
    with pytest.raises(ValueError):
        verdict(throughput, parent[:9], parent[:9])


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "perf",
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    # Run as the benchmark's own command would be, with nothing on the path
    # that could stand in for the missing program.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = _perf(
        "run", "--workload", "cold_score", "--seed", "3", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
