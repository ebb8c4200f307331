"""Reference-YAML label parsing.

The labeled reference YAML embeds match semantics in end-of-line comments::

    metadata:
      name: kube-registry-proxy  # *
      namespace: default
    spec:
      image: ubuntu:22.04        # v in ['20.04', '22.04']

``# *`` marks a wildcard (any value matches), ``# v in [...]`` marks a set
match, and unlabeled scalars require an exact match.  Because PyYAML drops
comments, this module re-implements a small line-oriented scan that pairs
each scalar value in the parsed document with the label found on its source
line, producing a :class:`LabeledNode` tree mirroring the document.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import yaml

from repro.yamlkit.parsing import YamlParseError, parse_yaml

__all__ = ["MatchKind", "LabeledNode", "parse_labeled_yaml", "strip_labels"]


class MatchKind(str, Enum):
    """How a leaf value in the reference YAML must be compared."""

    EXACT = "exact"
    WILDCARD = "wildcard"
    SET = "set"


_WILDCARD_RE = re.compile(r"#\s*\*\s*$")
_SET_RE = re.compile(r"#\s*v\s+in\s+(\[.*\])\s*$")


@dataclass
class LabeledNode:
    """A node of the labeled reference tree.

    Exactly one of ``children`` (mapping), ``items`` (sequence) or ``value``
    (scalar leaf) is meaningful, discriminated by ``node_type``.
    """

    node_type: str  # "mapping" | "sequence" | "scalar"
    value: Any = None
    match: MatchKind = MatchKind.EXACT
    allowed: tuple[Any, ...] = ()
    children: dict[str, "LabeledNode"] = field(default_factory=dict)
    items: list["LabeledNode"] = field(default_factory=list)

    def leaf_count(self) -> int:
        """Number of scalar leaves under this node (itself included)."""

        if self.node_type == "scalar":
            return 1
        if self.node_type == "mapping":
            return sum(child.leaf_count() for child in self.children.values()) or 1
        return sum(item.leaf_count() for item in self.items) or 1

    def matches_value(self, candidate: Any) -> bool:
        """Check a candidate scalar against this leaf's match semantics."""

        if self.node_type != "scalar":
            raise ValueError("matches_value is only defined for scalar nodes")
        if self.match is MatchKind.WILDCARD:
            return candidate is not None
        if self.match is MatchKind.SET:
            # The reference value itself is always acceptable.  Allowed
            # options match either exactly or as a contained fragment, which
            # covers the paper's example where the label lists version tags
            # (``# v in ['20.04', '22.04']``) while the field holds a full
            # image reference (``ubuntu:22.04``).
            if _scalar_equal(candidate, self.value):
                return True
            candidate_text = str(candidate).strip()
            for option in self.allowed:
                option_text = str(option).strip()
                if _scalar_equal(candidate, option) or (option_text and option_text in candidate_text):
                    return True
            return False
        return _scalar_equal(candidate, self.value)


def _scalar_equal(a: Any, b: Any) -> bool:
    """Compare scalars treating equivalent YAML spellings as equal."""

    if a == b:
        return True
    # YAML frequently represents numbers as strings (ports, quantities).
    return str(a).strip() == str(b).strip()


def _extract_line_labels(text: str) -> dict[int, tuple[MatchKind, tuple[Any, ...]]]:
    """Map 0-based line numbers to their label annotations."""

    labels: dict[int, tuple[MatchKind, tuple[Any, ...]]] = {}
    for lineno, line in enumerate(text.splitlines()):
        set_match = _SET_RE.search(line)
        if set_match:
            try:
                options = tuple(ast.literal_eval(set_match.group(1)))
            except (ValueError, SyntaxError):
                options = ()
            labels[lineno] = (MatchKind.SET, options)
            continue
        if _WILDCARD_RE.search(line):
            labels[lineno] = (MatchKind.WILDCARD, ())
    return labels


class _NodeConstructor(yaml.constructor.SafeConstructor):
    """Constructs Python values directly from composed nodes.

    The composer has already resolved implicit tags, so constructing a
    node gives the value ``load_all_documents`` would give for it, without
    serialising the node and parsing it again.
    """


def _build_node(
    node: yaml.Node,
    labels: dict[int, tuple[MatchKind, tuple[Any, ...]]],
    constructor: _NodeConstructor,
) -> LabeledNode:
    """Recursively convert a PyYAML node graph into a LabeledNode tree."""

    if isinstance(node, yaml.MappingNode):
        children: dict[str, LabeledNode] = {}
        for key_node, value_node in node.value:
            key = constructor.construct_object(key_node, deep=True)
            children[str(key)] = _build_node(value_node, labels, constructor)
        return LabeledNode(node_type="mapping", children=children)
    if isinstance(node, yaml.SequenceNode):
        items = [_build_node(child, labels, constructor) for child in node.value]
        return LabeledNode(node_type="sequence", items=items)
    # Scalar: resolve its Python value and attach any label from its line.
    value = constructor.construct_object(node, deep=True)
    match_kind, allowed = labels.get(node.start_mark.line, (MatchKind.EXACT, ()))
    return LabeledNode(node_type="scalar", value=value, match=match_kind, allowed=allowed)


def parse_labeled_yaml(text: str) -> LabeledNode:
    """Parse a labeled reference YAML document into a :class:`LabeledNode` tree.

    Multi-document references are merged into a synthetic sequence node so
    the scorer can compare document-by-document.
    """

    labels = _extract_line_labels(text)

    def build(loader: type) -> list[LabeledNode]:
        # Compose every document before building any, so a composer error
        # anywhere wins over a constructor error in an earlier document.
        nodes = [n for n in yaml.compose_all(text, Loader=loader) if n is not None]
        constructor = _NodeConstructor()
        return [_build_node(n, labels, constructor) for n in nodes]

    try:
        # Labels attach by node line, and libyaml puts an empty node at the
        # end of a text with no final line break on a line of its own.
        trees = parse_yaml(text, build) if text.endswith("\n") else build(yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise YamlParseError(f"invalid labeled reference YAML: {exc}") from exc
    if not trees:
        raise YamlParseError("labeled reference YAML contains no documents")
    if len(trees) == 1:
        return trees[0]
    return LabeledNode(node_type="sequence", items=trees)


def strip_labels(text: str) -> str:
    """Remove label comments, returning plain YAML text.

    The output is what a perfect model would be expected to produce; it is
    also used to compute text-level metrics against the reference.
    """

    out_lines: list[str] = []
    for line in text.splitlines():
        stripped = _SET_RE.sub("", line)
        stripped = _WILDCARD_RE.sub("", stripped)
        out_lines.append(stripped.rstrip())
    return "\n".join(out_lines).rstrip() + "\n"
