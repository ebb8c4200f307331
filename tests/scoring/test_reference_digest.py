"""The score-cache key needs no compiled reference, and a compile is paid
once per distinct reference text.

:func:`~repro.scoring.compiled.reference_digest` must equal
``CompiledReference.digest`` for every problem, or existing cache files
would go cold.  :func:`~repro.scoring.compiled.get_compiled_reference`
shares the content artifacts of one compilation between every problem with
the same reference text, so scoring must never mutate them.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.dataset.builder import build_dataset
from repro.llm.interface import GenerationRequest
from repro.llm.registry import available_models, get_model
from repro.pipeline import ScoreStage, StageContext, WorkItem
from repro.postprocess import extract_yaml
from repro.scoring import compiled as compiled_module
from repro.scoring.cache import ScoreCache
from repro.scoring.compiled import (
    answer_digest,
    compile_reference,
    get_compiled_reference,
    reference_digest,
    score_answer_compiled,
    score_batch,
    score_extracted,
)

#: The content artifacts every problem with the same reference text shares.
SHARED_ARTIFACTS = (
    "reference_plain",
    "normalized_plain",
    "reference_lines",
    "reference_tokens",
    "reference_ngrams",
    "reference_documents",
    "labeled_tree",
)


@pytest.fixture(scope="module")
def dataset():
    return list(build_dataset(seed=7))


def _fresh(problems):
    """Copies of ``problems`` without any memo on the instance."""

    return pickle.loads(pickle.dumps(list(problems)))


def _shared_text_problems(dataset, texts: int = 12):
    """Every problem whose reference text is one of the first ``texts``
    texts that more than one problem uses."""

    counts = Counter(problem.reference_yaml for problem in dataset)
    chosen = [text for text in dict.fromkeys(p.reference_yaml for p in dataset) if counts[text] > 1][:texts]
    return [problem for problem in dataset if problem.reference_yaml in chosen], len(chosen)


@pytest.fixture
def compile_calls(monkeypatch):
    """Count real compiles, starting from an empty per-text map."""

    calls: list[str] = []
    original = compiled_module.compile_reference

    def counting(problem):
        calls.append(problem.problem_id)
        return original(problem)

    monkeypatch.setattr(compiled_module, "_COMPILED_BY_TEXT", {})
    monkeypatch.setattr(compiled_module, "compile_reference", counting)
    return calls


def _items(problems, model: str = "gpt-4"):
    items = []
    for problem in problems:
        response = get_model(model, seed=7).generate(problem)
        items.append(
            WorkItem(
                request=GenerationRequest(problem=problem),
                model_name=model,
                response=response,
                extracted=extract_yaml(response),
            )
        )
    return items


def test_reference_digest_equals_the_compiled_digest(dataset):
    for problem in _fresh(dataset):
        assert reference_digest(problem) == compile_reference(problem).digest
        # Shared compilations carry their own problem's digest too.
        assert reference_digest(problem) == get_compiled_reference(problem).digest


def test_reference_digest_is_memoised_on_the_problem(dataset):
    problem = _fresh(dataset[:1])[0]
    digest = reference_digest(problem)
    assert problem.__dict__[compiled_module._DIGEST_ATTR] == digest
    assert reference_digest(problem) is digest


def test_a_cache_of_compiled_digests_is_served_entirely_by_the_score_stage(dataset, compile_calls):
    problems, _ = _shared_text_problems(dataset)
    cache = ScoreCache()
    expected = []
    for item in _items(_fresh(problems)):
        compiled = get_compiled_reference(item.request.problem)
        card = score_extracted(compiled, item.extracted, True)
        cache.put(compiled.digest, answer_digest(item.extracted), card)
        expected.append(card)
    del compile_calls[:]
    compiled_module._COMPILED_BY_TEXT.clear()

    # A warm run on fresh instances, as in a fresh process: every lookup
    # hits and nothing compiles.
    items = _items(_fresh(problems))
    ScoreStage(cache=cache).process(items, StageContext())
    assert [item.scores for item in items] == expected
    assert cache.misses == 0 and cache.hits == len(items)
    assert compile_calls == []

    cards = score_batch(
        ((item.request.problem, item.response) for item in _items(_fresh(problems))), cache=cache
    )
    assert cards == expected
    assert compile_calls == []


def test_a_cold_score_stage_run_compiles_each_distinct_text_once(dataset, compile_calls):
    problems, texts = _shared_text_problems(dataset)
    assert len(problems) > texts  # the texts really are shared

    cache = ScoreCache()
    items = _items(_fresh(problems))
    ScoreStage(cache=cache).process(items, StageContext())
    assert len(compile_calls) == texts
    assert cache.misses == len(items) and cache.writes == len(items)

    # The cards written back are those of a full compile of each problem.
    for item in items:
        fresh = compile_reference(item.request.problem)
        assert item.scores == score_extracted(fresh, item.extracted, True)
        assert cache.peek(fresh.digest, answer_digest(item.extracted)) == item.scores


def test_shared_artifacts_are_never_mutated(dataset):
    counts = Counter(problem.reference_yaml for problem in dataset)
    text = max(counts, key=counts.get)
    variants = _fresh(problem for problem in dataset if problem.reference_yaml == text)
    assert len(variants) > 1

    for problem in variants:
        compiled = get_compiled_reference(problem)
        for model in available_models():
            for sample_index in range(2):
                response = get_model(model, seed=7).generate(problem, sample_index=sample_index)
                score_answer_compiled(compiled, response)

    first = get_compiled_reference(variants[0])
    for problem in variants:
        compiled = get_compiled_reference(problem)
        fresh = compile_reference(problem)
        assert compiled.problem_id == problem.problem_id
        assert compiled.unit_test == problem.unit_test
        assert compiled.reference_documents == fresh.reference_documents
        assert compiled.labeled_tree == fresh.labeled_tree
        assert compiled == fresh
        for name in SHARED_ARTIFACTS:
            assert getattr(compiled, name) is getattr(first, name), name
