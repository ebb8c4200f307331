"""Differential tests: libyaml's C parser against the pure-Python parser.

``repro.yamlkit.parsing`` parses with ``FAST_LOADER`` (``yaml.CSafeLoader``
when PyYAML has libyaml) and re-parses in pure Python when the C parser
rejects a text; texts on which libyaml is known to differ without raising
skip it.  Every test here runs the same input with ``FAST_LOADER`` set to
each loader and requires the same documents, the same labeled tree or the
same ``YamlParseError`` message.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from repro.dataset.builder import build_dataset
from repro.llm.registry import available_models, get_model
from repro.postprocess.extract import extract_yaml
from repro.yamlkit import parsing
from repro.yamlkit.labels import MatchKind, parse_labeled_yaml, strip_labels
from repro.yamlkit.parsing import YamlParseError, load_all_documents

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")

LOADERS = {"libyaml": getattr(yaml, "CSafeLoader", None), "python": yaml.SafeLoader}


@pytest.fixture(scope="module")
def references() -> list[str]:
    """Every distinct labeled reference of the seed-7 dataset, in dataset order."""

    return list(dict.fromkeys(problem.reference_yaml for problem in build_dataset(seed=7)))


def _outcome(parse, text: str):
    try:
        return ("ok", parse(text))
    except YamlParseError as exc:
        return ("error", str(exc))


def _outcomes(monkeypatch, parse, texts: list[str]) -> dict[str, list]:
    """``parse`` applied to every text under each loader."""

    results = {}
    for name, loader in LOADERS.items():
        monkeypatch.setattr(parsing, "FAST_LOADER", loader)
        results[name] = [_outcome(parse, text) for text in texts]
    return results


def _any_outcome(parse, text: str):
    try:
        return ("ok", parse(text))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("error", type(exc).__name__, str(exc))


def _c_parser_rejects(text: str) -> bool:
    try:
        list(yaml.load_all(text, Loader=LOADERS["libyaml"]))
    except (yaml.YAMLError, UnicodeEncodeError):
        return True
    return False


def test_the_fast_loader_is_libyaml():
    assert parsing.FAST_LOADER is yaml.CSafeLoader


def test_references_parse_identically(monkeypatch, references):
    plain = [strip_labels(text) for text in references]
    documents = _outcomes(monkeypatch, load_all_documents, plain)
    assert documents["libyaml"] == documents["python"]
    assert all(kind == "ok" for kind, _ in documents["python"])

    # LabeledNode equality covers node types, values, match kinds and allowed values.
    trees = _outcomes(monkeypatch, parse_labeled_yaml, references)
    assert trees["libyaml"] == trees["python"]
    assert all(kind == "ok" for kind, _ in trees["python"])


def test_registry_answers_parse_or_fail_identically(monkeypatch):
    problems = list(build_dataset(seed=7))
    rng = random.Random(19)
    answers = [
        extract_yaml(get_model(name, seed=7).generate(problem))
        for name in available_models()
        for problem in rng.sample(problems, 25)
    ]
    results = _outcomes(monkeypatch, load_all_documents, answers)
    assert results["libyaml"] == results["python"]

    kinds = [kind for kind, _ in results["python"]]
    assert kinds.count("ok") > 0 and kinds.count("error") > 0
    # The failures went through the fallback: the C parser rejected them too.
    failed = [text for text, kind in zip(answers, kinds) if kind == "error"]
    assert all(_c_parser_rejects(text) for text in failed)


#: Endings that leave a text without a final line break: the bare text and
#: a trailing document start, document start and space, or document end.
UNTERMINATED_ENDINGS = ("", "\n---", "\n--- ", "\n...")


def test_registry_answers_without_a_final_newline_parse_identically(monkeypatch):
    problems = list(build_dataset(seed=7))
    rng = random.Random(23)
    answers = [
        extract_yaml(get_model(name, seed=7).generate(problem))
        for name in available_models()
        for problem in rng.sample(problems, 25)
    ]
    texts = [answer.rstrip("\n") + ending for answer in answers for ending in UNTERMINATED_ENDINGS]
    assert not any(text.endswith("\n") for text in texts)
    results = _outcomes(monkeypatch, load_all_documents, texts)
    assert results["libyaml"] == results["python"]

    # libyaml itself read most of them; the rest went to the fallback.
    read_by_libyaml = [
        text for text in texts if parsing._libyaml_reads_like_python(text) and not _c_parser_rejects(text)
    ]
    assert len(read_by_libyaml) > len(texts) // 2


def _perturbations(reference: str) -> list[str]:
    lines = reference.splitlines(keepends=True)
    truncated = ["".join(lines[:cut]) for cut in range(1, len(lines) + 1)]
    tab_indented = "".join("\t" + line.lstrip(" ") if line.startswith("  ") else line for line in lines)
    tab_separated = reference.replace(": ", ":\t", 1)
    unclosed_flow = reference + "extra: [a, b\n"
    trailing = [reference + "---", reference.rstrip("\n"), reference + "\ufeff\n"]
    return truncated + [tab_indented, tab_separated, unclosed_flow] + trailing


def test_perturbed_references_give_the_same_outcome(monkeypatch, references):
    # Every 25th reference keeps the pure-Python side of the test to about a second.
    texts = [text for reference in references[::25] for text in _perturbations(reference)]
    for parse in (load_all_documents, parse_labeled_yaml):
        results = _outcomes(monkeypatch, parse, texts)
        assert results["libyaml"] == results["python"]
        assert any(kind == "error" for kind, _ in results["python"])


def test_libyaml_errors_are_worded_by_the_python_parser():
    text = "spec:\n\tcontainers: []\n"
    assert _c_parser_rejects(text)
    with pytest.raises(YamlParseError, match=re.escape("found character '\\t' that cannot start any token")):
        load_all_documents(text)


def test_a_lone_surrogate_is_a_parse_error_on_both_paths(monkeypatch):
    text = "name: '\ud800'\n"
    results = _outcomes(monkeypatch, load_all_documents, [text])
    assert results["libyaml"] == results["python"]
    assert results["python"][0][0] == "error"


# Texts libyaml 0.2.5 accepts and the pure-Python parser rejects.
LIBYAML_ONLY = [
    "a: [b,\tc]\n",  # a tab inside a flow collection
    "a: b\tc\n",  # a tab after a plain scalar
    "a: b\t# c\n",  # a tab before a comment
    "a: b\n\ufeff\n",  # a byte-order mark after the start of the text
]


@pytest.mark.parametrize("text", LIBYAML_ONLY)
def test_texts_only_libyaml_accepts_fail_as_in_pure_python(monkeypatch, text):
    list(yaml.load_all(text, Loader=LOADERS["libyaml"]))  # libyaml alone would accept it
    for parse in (load_all_documents, parse_labeled_yaml):
        results = _outcomes(monkeypatch, parse, [text])
        assert results["libyaml"] == results["python"]
        assert results["python"][0][0] == "error"


def test_labeled_constructor_errors_are_worded_by_the_python_parser(monkeypatch):
    # libyaml composes this; only constructing the tagged value fails, and
    # libyaml's node marks carry no source line to quote.
    text = "kind: !foo Pod  # *\n"
    trees = _outcomes(monkeypatch, parse_labeled_yaml, [text])
    assert trees["libyaml"] == trees["python"]
    assert trees["python"][0][0] == "error"
    assert "kind: !foo Pod" in trees["python"][0][1]


def test_an_empty_document_at_an_unterminated_end_keeps_its_label(monkeypatch):
    text = "a: 1\n--- # *"
    # libyaml alone puts the empty document on a line of its own.
    lines = {
        name: [node.start_mark.line for node in yaml.compose_all(text, Loader=loader)]
        for name, loader in LOADERS.items()
    }
    assert lines["libyaml"] != lines["python"]
    trees = _outcomes(monkeypatch, parse_labeled_yaml, [text])
    assert trees["libyaml"] == trees["python"]
    assert trees["python"][0][1].items[1].match is MatchKind.WILDCARD


def test_deep_nesting_raises_recursion_error_on_both_paths(monkeypatch):
    # libyaml alone composes this; the pure-Python composer runs out of stack.
    text = "[" * 600 + "]" * 600 + "\n"
    list(yaml.load_all(text, Loader=LOADERS["libyaml"]))
    for loader in LOADERS.values():
        monkeypatch.setattr(parsing, "FAST_LOADER", loader)
        with pytest.raises(RecursionError):
            load_all_documents(text)


def test_nesting_that_crashes_libyaml_is_left_to_pure_python():
    # libyaml's recursive composer overflows the C stack on this input and
    # kills the process; the pure-Python parser raises RecursionError.
    script = (
        "from repro.yamlkit.parsing import load_all_documents\n"
        "load_all_documents('- ' * 100000 + 'x\\n')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 1, child.stderr[-2000:]
    assert "RecursionError" in child.stderr


_MUTATIONS = [
    *("\t", " ", "\n", "\r", "\x85", "\u2028", "\ufeff"),
    *"?:-[]{},#&*!|>'\"%é",
]


def test_mutated_references_give_the_same_outcome(monkeypatch, references):
    rng = random.Random(19)
    texts = []
    for _ in range(200):
        text = rng.choice(references)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(_MUTATIONS) + text[at + rng.randint(0, 1) :]
        texts.append(text)
    for parse in (load_all_documents, parse_labeled_yaml):
        results = {}
        for name, loader in LOADERS.items():
            monkeypatch.setattr(parsing, "FAST_LOADER", loader)
            results[name] = [_any_outcome(parse, text) for text in texts]
        assert results["libyaml"] == results["python"]
