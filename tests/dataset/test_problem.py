"""Tests for the Problem / ProblemSet data model."""

from __future__ import annotations

import pytest

from repro.dataset.problem import Problem, ProblemSet
from repro.dataset.schema import Category, Variant
from repro.testexec import ApplyAnswer, UnitTestProgram


def _problem(problem_id="pod-0001-original", variant=Variant.ORIGINAL, context=None):
    return Problem(
        problem_id=problem_id,
        base_id=problem_id.rsplit("-", 1)[0],
        category=Category.POD,
        variant=variant,
        question="Create a pod named web.",
        yaml_context=context,
        reference_yaml="apiVersion: v1\nkind: Pod\nmetadata:\n  name: web  # *\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
        unit_test=UnitTestProgram(steps=(ApplyAnswer(),)),
        difficulty=0.3,
        metadata={"primary_kind": "Pod"},
    )


def test_reference_plain_strips_labels():
    assert "# *" not in _problem().reference_plain()


def test_full_question_embeds_context_in_fence():
    with_context = _problem(context="apiVersion: v1\nkind: Pod\n")
    assert "```" in with_context.full_question()
    assert with_context.has_code_context
    assert not _problem().has_code_context


def test_statistics_helpers_positive():
    problem = _problem()
    assert problem.question_words() > 0
    assert problem.question_tokens() >= problem.question_words()
    assert problem.solution_lines() == 8
    assert problem.unit_test_lines() >= 2


def test_serialisation_round_trip():
    problem = _problem(context="kind: Pod\n")
    assert Problem.from_dict(problem.to_dict()) == problem


def test_application_property():
    assert _problem().application == "kubernetes"


def test_problem_set_filters():
    problems = [
        _problem("pod-0001-original"),
        _problem("pod-0001-simplified", variant=Variant.SIMPLIFIED),
        _problem("pod-0002-original"),
    ]
    dataset = ProblemSet(problems)
    assert len(dataset) == 3
    assert len(dataset.originals()) == 2
    assert len(dataset.by_variant(Variant.SIMPLIFIED)) == 1
    assert len(dataset.by_category(Category.POD)) == 3
    assert len(dataset.by_application("kubernetes")) == 3
    assert dataset.get("pod-0002-original").problem_id == "pod-0002-original"
    with pytest.raises(KeyError):
        dataset.get("missing")


def test_problem_set_index_is_cached_and_complete():
    problems = [
        _problem("pod-0001-original"),
        _problem("pod-0001-simplified", variant=Variant.SIMPLIFIED),
        _problem("pod-0002-original"),
    ]
    dataset = ProblemSet(problems)
    # Repeated lookups return the lazily built partition, not a rescan.
    originals = dataset.by_variant(Variant.ORIGINAL)
    assert dataset.by_variant(Variant.ORIGINAL) is originals
    assert [p.problem_id for p in originals] == ["pod-0001-original", "pod-0002-original"]
    pods = dataset.by_category(Category.POD)
    assert dataset.by_category(Category.POD) is pods
    # Absent partitions come back empty (and stay cached).
    assert len(dataset.by_variant(Variant.TRANSLATED)) == 0
    assert len(dataset.by_category(Category.ENVOY)) == 0


def test_problem_set_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        ProblemSet([_problem(), _problem()])


def test_problem_set_dict_round_trip():
    dataset = ProblemSet([_problem()])
    restored = ProblemSet.from_dicts(dataset.to_dicts())
    assert restored[0] == dataset[0]


def test_problem_pickles_without_instance_caches(small_original_problems):
    """Regression: derived artifacts cached on the instance (compiled
    reference, reference digest, image list) must not ride along in
    pickles — process-pool task envelopes depend on the problem staying
    small."""

    import pickle

    from repro.evalcluster.simulation import problem_images
    from repro.scoring.compiled import _CACHE_ATTR, _DIGEST_ATTR, get_compiled_reference, reference_digest

    problem = list(small_original_problems)[0]
    bare_size = len(pickle.dumps(problem))

    get_compiled_reference(problem)  # populate every instance cache
    reference_digest(problem)
    problem_images(problem)
    assert _CACHE_ATTR in problem.__dict__
    assert _DIGEST_ATTR in problem.__dict__

    data = pickle.dumps(problem)
    assert len(data) == bare_size  # caches stripped, fields only
    clone = pickle.loads(data)
    assert _CACHE_ATTR not in clone.__dict__
    assert _DIGEST_ATTR not in clone.__dict__
    assert clone == problem
