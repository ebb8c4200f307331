"""Canonical YAML normalization.

Two YAML files that describe the same object can differ in key order,
quoting and flow style.  The key-value metrics in the paper load both files
into dictionaries before comparing; this module provides the shared
normalization used by those metrics and by the exact-match post-check.
"""

from __future__ import annotations

from typing import Any

import yaml

__all__ = ["normalize_document", "canonical_dump", "documents_equal"]


def normalize_document(doc: Any) -> Any:
    """Return a canonical representation of a parsed YAML document.

    Mappings have their keys coerced to strings (YAML permits non-string
    keys but Kubernetes objects never use them) and scalars are kept as-is.
    Sequences keep their order because order *is* significant inside lists
    such as ``containers`` or ``ports``.
    """

    if isinstance(doc, dict):
        return {str(k): normalize_document(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [normalize_document(item) for item in doc]
    return doc


def canonical_dump(doc: Any) -> str:
    """Serialise a document with sorted keys for stable text comparison."""

    return yaml.safe_dump(normalize_document(doc), sort_keys=True, default_flow_style=False)


def _scalar_equal(a: Any, b: Any) -> bool:
    if a == b:
        return True
    return str(a).strip() == str(b).strip()


def documents_equal(a: Any, b: Any) -> bool:
    """Structural equality with lenient scalar comparison.

    Numbers and their string spellings compare equal (``80`` vs ``"80"``)
    because Kubernetes accepts both in most fields; this mirrors how
    ``kubectl apply`` treats the manifests.
    """

    return _normalized_equal(normalize_document(a), normalize_document(b))


def _normalized_equal(a: Any, b: Any) -> bool:
    """:func:`documents_equal` on documents already passed through :func:`normalize_document`."""

    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(_normalized_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(_normalized_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        return False
    return _scalar_equal(a, b)
