"""Tests for YAML normalization and structural equality."""

from __future__ import annotations

from repro.yamlkit import normalize
from repro.yamlkit.normalize import canonical_dump, documents_equal, normalize_document


def test_documents_equal_ignores_key_order():
    a = {"kind": "Pod", "metadata": {"name": "x", "labels": {"a": "1"}}}
    b = {"metadata": {"labels": {"a": "1"}, "name": "x"}, "kind": "Pod"}
    assert documents_equal(a, b)


def test_documents_equal_respects_list_order():
    assert not documents_equal({"a": [1, 2]}, {"a": [2, 1]})


def test_documents_equal_numeric_string_leniency():
    assert documents_equal({"port": 80}, {"port": "80"})


def test_documents_equal_detects_missing_key():
    assert not documents_equal({"a": 1, "b": 2}, {"a": 1})


def test_documents_equal_detects_extra_nesting():
    assert not documents_equal({"a": {"b": 1}}, {"a": 1})


def test_normalize_document_coerces_keys_to_strings():
    assert normalize_document({1: "x"}) == {"1": "x"}


def test_canonical_dump_is_stable_under_key_order():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_dump(a) == canonical_dump(b)


def test_documents_equal_normalizes_a_deep_document_once(monkeypatch):
    def nested(depth, leaf):
        doc = {"leaf": leaf}
        for level in range(depth):
            doc = {level: [doc]}
        return doc

    calls = []
    original = normalize.normalize_document

    def counting(doc):
        calls.append(1)
        return original(doc)

    monkeypatch.setattr(normalize, "normalize_document", counting)
    depth = 100
    assert documents_equal(nested(depth, 80), nested(depth, "80"))
    assert not documents_equal(nested(depth, 80), nested(depth, 81))
    # One pass over each document: 2 * depth + 2 nodes each, two documents, two comparisons.
    assert len(calls) == 2 * 2 * (2 * depth + 2)
