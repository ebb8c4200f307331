"""YAML handling utilities: parsing, reference labels, normalization, diffs.

The CloudEval-YAML dataset annotates reference YAML files with three kinds
of match labels expressed as trailing comments:

* ``# *`` — wildcard match: any value is acceptable at this position,
* ``# v in ['a', 'b']`` — conditional (set) match: the value must be one of
  the listed alternatives,
* no label — exact match (the default).

:mod:`repro.yamlkit.labels` parses those annotations into a
:class:`~repro.yamlkit.labels.LabeledNode` tree that the YAML-aware scorer
consumes.  :mod:`repro.yamlkit.parsing` is the one place YAML is parsed: a safe
multi-document loader that uses libyaml when PyYAML has it and words every
error as the pure-Python parser does.  :mod:`repro.yamlkit.diffing`
implements the line-level edit-distance used by the text-level scorer.
"""

from repro.yamlkit.diffing import line_edit_distance, scaled_edit_similarity
from repro.yamlkit.labels import LabeledNode, MatchKind, parse_labeled_yaml, strip_labels
from repro.yamlkit.normalize import canonical_dump, normalize_document
from repro.yamlkit.parsing import (
    YamlParseError,
    is_valid_yaml,
    load_all_documents,
    load_document,
)

__all__ = [
    "LabeledNode",
    "MatchKind",
    "YamlParseError",
    "canonical_dump",
    "is_valid_yaml",
    "line_edit_distance",
    "load_all_documents",
    "load_document",
    "normalize_document",
    "parse_labeled_yaml",
    "scaled_edit_similarity",
    "strip_labels",
]
