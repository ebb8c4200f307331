"""Tests for the benchmark driver and its configuration."""

from __future__ import annotations

import pytest

from repro.core import BenchmarkConfig, CloudEvalBenchmark, format_leaderboard
from repro.dataset.schema import Variant
from repro.scoring.aggregate import METRIC_NAMES


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(shots=5)
    with pytest.raises(ValueError):
        BenchmarkConfig(samples=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(variants=())


def test_config_rejects_the_removed_static_schedule():
    assert BenchmarkConfig(steal=True).steal is True
    with pytest.raises(ValueError, match="static round-robin"):
        BenchmarkConfig(steal=False)


def test_evaluate_model_covers_all_variants(small_benchmark, small_dataset):
    evaluation = small_benchmark.evaluate_model("gpt-4")
    assert len(evaluation.first_samples()) == len(small_dataset)
    variants = {record.variant for record in evaluation.records}
    assert variants == {"original", "simplified", "translated"}


def test_english_only_model_skips_translated(small_benchmark, small_dataset):
    evaluation = small_benchmark.evaluate_model("palm-2-bison")
    assert all(record.variant != Variant.TRANSLATED.value for record in evaluation.records)
    expected = len(small_dataset) - len(small_dataset.by_variant(Variant.TRANSLATED))
    assert len(evaluation.records) == expected


def test_mean_scores_contains_every_metric(small_benchmark_result):
    scores = small_benchmark_result["gpt-4"].mean_scores()
    assert set(scores) == set(METRIC_NAMES)
    assert all(0.0 <= value <= 1.0 for value in scores.values())


def test_stronger_model_scores_higher(small_benchmark_result):
    strong = small_benchmark_result["gpt-4"].unit_test_score()
    weak = small_benchmark_result["codellama-7b-instruct"].unit_test_score()
    assert strong > weak


def test_leaderboard_sorted_by_unit_test(small_benchmark_result):
    leaderboard = small_benchmark_result.leaderboard()
    unit_scores = [scores["unit_test"] for _, scores in leaderboard]
    assert unit_scores == sorted(unit_scores, reverse=True)
    rendered = format_leaderboard(small_benchmark_result)
    assert "gpt-4" in rendered and "unit_test" in rendered
    assert "pred_eval_s" not in rendered  # the cost column is opt-in


def test_leaderboard_breaks_ties_by_model_name():
    from copy import deepcopy

    from repro.core.benchmark import BenchmarkResult
    from repro.pipeline.records import ModelEvaluation

    tied = BenchmarkResult()
    # Two models with identical (empty) evaluations score identically on
    # every metric; their order must still be deterministic.
    tied.evaluations["zeta"] = ModelEvaluation(model_name="zeta")
    tied.evaluations["alpha"] = deepcopy(ModelEvaluation(model_name="alpha"))
    assert [name for name, _ in tied.leaderboard()] == ["alpha", "zeta"]


def test_leaderboard_predicted_cost_column(small_benchmark, small_benchmark_result, small_dataset):
    rendered = format_leaderboard(
        small_benchmark_result, cost_model=small_benchmark.cost_model()
    )
    assert "pred_eval_s" in rendered
    # Every model evaluated the same corpus here, so every row shows the
    # same predicted seconds: the warm-cache total over the dataset.
    expected = small_benchmark.cost_model().predict_problems_seconds(
        [small_dataset.get(r.problem_id)
         for r in small_benchmark_result["gpt-4"].first_samples()]
    )
    assert f"{expected:.1f}" in rendered
    with pytest.raises(ValueError, match="dataset"):
        from repro.evalcluster.cost import CostModel

        format_leaderboard(small_benchmark_result, cost_model=CostModel())


def test_pass_count_filters_by_variant(small_benchmark_result):
    evaluation = small_benchmark_result["gpt-4"]
    total = evaluation.pass_count()
    original_only = evaluation.pass_count(variant="original")
    assert 0 < original_only <= total


def test_records_carry_problem_metadata(small_benchmark_result, small_dataset):
    record = small_benchmark_result["gpt-4"].records[0]
    problem = small_dataset.get(record.problem_id)
    assert record.category == problem.category.value
    assert record.application == problem.application
    assert record.solution_lines == problem.solution_lines()
    assert record.raw_response


def test_evaluation_is_deterministic(small_dataset):
    config = BenchmarkConfig()
    problems = list(small_dataset.by_variant(Variant.ORIGINAL))[:10]
    a = CloudEvalBenchmark(small_dataset, config).evaluate_model("llama-2-13b-chat", problems=problems)
    b = CloudEvalBenchmark(small_dataset, config).evaluate_model("llama-2-13b-chat", problems=problems)
    assert [r.scores.as_dict() for r in a.records] == [r.scores.as_dict() for r in b.records]


def test_multi_sample_evaluation(small_dataset):
    bench = CloudEvalBenchmark(small_dataset, BenchmarkConfig(samples=3))
    problems = list(small_dataset.by_variant(Variant.ORIGINAL))[:5]
    evaluation = bench.evaluate_model("gpt-3.5", problems=problems)
    assert len(evaluation.records) == 15
    assert {r.sample_index for r in evaluation.records} == {0, 1, 2}


def test_filter_helper(small_benchmark_result):
    evaluation = small_benchmark_result["gpt-4"]
    envoy_records = evaluation.filter(application="envoy")
    assert envoy_records and all(r.application == "envoy" for r in envoy_records)


def test_skipping_unit_tests_zeroes_functional_score(small_dataset):
    bench = CloudEvalBenchmark(small_dataset, BenchmarkConfig(run_unit_tests=False))
    problems = list(small_dataset.by_variant(Variant.ORIGINAL))[:5]
    evaluation = bench.evaluate_model("gpt-4", problems=problems)
    assert all(r.scores.unit_test == 0.0 for r in evaluation.records)
