"""Records are bit-identical whether YAML is parsed by libyaml or pure Python.

``repro.yamlkit.parsing.FAST_LOADER`` is the only switch between the two
parsers.  Forcing it to ``yaml.SafeLoader`` is how the code runs where
PyYAML lacks libyaml; the records, failure messages of unparseable answers
included, must not tell the two apart.
"""

from __future__ import annotations

import random

import pytest
import yaml

from repro.dataset.builder import build_dataset
from repro.llm.interface import GenerationRequest
from repro.llm.registry import get_model
from repro.pipeline import EvaluationPipeline
from repro.scoring.compiled import ReferenceStore
from repro.testexec.executor import _parsed_manifest
from repro.yamlkit import parsing

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")

MODELS = ("gpt-4", "llama-7b", "codellama-7b-instruct")


def _records(model_name: str):
    # A fresh dataset and store: compiled references are cached on Problem
    # instances, and step manifests per process, so nothing parsed under one
    # loader is reused under the other.
    _parsed_manifest.cache_clear()
    problems = random.Random(19).sample(list(build_dataset(seed=7)), 40)
    requests = [GenerationRequest(problem=problem) for problem in problems]
    pipeline = EvaluationPipeline(get_model(model_name, seed=7), store=ReferenceStore(), run_unit_tests=True)
    return pipeline.run(requests).records


@pytest.fixture(scope="module")
def fast_records():
    return {name: _records(name) for name in MODELS}


@pytest.mark.parametrize("model_name", MODELS)
def test_records_equal_without_libyaml(monkeypatch, fast_records, model_name):
    monkeypatch.setattr(parsing, "FAST_LOADER", yaml.SafeLoader)
    assert _records(model_name) == fast_records[model_name]


def test_the_sample_holds_answers_that_fail_to_parse(fast_records):
    messages = [record.scores.failure_message for records in fast_records.values() for record in records]
    assert any("invalid YAML" in message for message in messages)
