"""Safe YAML parsing helpers used across the benchmark.

Generated answers are untrusted text, so everything is parsed with PyYAML's
safe loader: libyaml's C parser when PyYAML was built with it, the
pure-Python ``yaml.SafeLoader`` otherwise.  Both build documents with the
same ``SafeConstructor``.  libyaml words its errors differently, so a text
the C parser rejects is parsed again in pure Python; the error raised, and
the documents of a text only the pure-Python parser accepts, are exactly
those of the pure-Python path.  The two parsers also part ways on a few
texts the C parser accepts (see :func:`_libyaml_reads_like_python`); those
go to the pure-Python parser directly, so every text gets the documents,
node lines or error it got before libyaml was used.

Answers frequently contain multiple documents (for example a Service and a
Deployment separated by ``---``), so the loaders in this module always
expose a multi-document view and the single-document helper simply asserts
there is exactly one.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

import yaml

__all__ = [
    "YamlParseError",
    "load_document",
    "load_all_documents",
    "parse_yaml",
    "is_valid_yaml",
    "dump_document",
]

#: The loader tried first; ``yaml.SafeLoader`` both without libyaml and as
#: the fallback that words every error.
FAST_LOADER: type = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_T = TypeVar("_T")

#: Texts that might nest collections deeper than this skip libyaml.
_MAX_LIBYAML_NESTING = 200


class YamlParseError(ValueError):
    """Raised when a YAML payload cannot be parsed or has the wrong shape."""


def _libyaml_reads_like_python(text: str) -> bool:
    r"""Whether libyaml is known to read ``text`` as the pure-Python parser does.

    False for the texts on which libyaml 0.2.5 and PyYAML's scanner differ
    although libyaml does not raise:

    * a tab: the pure-Python scanner rejects one used as whitespace inside
      a line or a flow collection (``a: b\tc``, ``a: [b,\tc]``), libyaml
      accepts it;
    * a byte-order mark after the start of the text: libyaml skips one at
      the start of any line, the pure-Python reader rejects it;
    * deep nesting: libyaml composes recursively in C and crashes the
      process past some ten thousand levels, where the pure-Python
      composer raises ``RecursionError`` after a few hundred.  Every
      collection opens with its own ``[``, ``{`` or first ``-``, or with
      the ``?`` or ``:`` of its first key, so these characters bound the
      depth.

    A text with no line break at the end gets the same documents from
    both parsers, but libyaml moves its stream end onto a new line, so an
    empty node there (a trailing ``---``) gets another line.  Only node
    lines see that, so :func:`~repro.yamlkit.labels.parse_labeled_yaml`
    alone turns such texts away.
    """

    if "\t" in text or "\ufeff" in text:
        return False
    return sum(text.count(indicator) for indicator in "[{-?:") <= _MAX_LIBYAML_NESTING


def parse_yaml(text: str, parse: Callable[[type], _T]) -> _T:
    """``parse(FAST_LOADER)``, or ``parse(yaml.SafeLoader)`` where the two may differ.

    ``parse`` runs the given PyYAML loader class over ``text`` and builds
    its whole result, so every error the result depends on is raised in
    here.  The pure-Python loader runs when libyaml raises
    ``yaml.YAMLError`` and, without libyaml being tried, for every text
    :func:`_libyaml_reads_like_python` turns away.  The C parser encodes
    ``str`` input to UTF-8 before scanning, so a lone surrogate raises
    ``UnicodeEncodeError`` there, where the pure-Python reader raises a
    ``ReaderError``.
    """

    if FAST_LOADER is not yaml.SafeLoader and _libyaml_reads_like_python(text):
        try:
            return parse(FAST_LOADER)
        except (yaml.YAMLError, UnicodeEncodeError):
            pass
    return parse(yaml.SafeLoader)


def load_all_documents(text: str) -> list[Any]:
    """Parse ``text`` into a list of YAML documents.

    Empty documents (for example a trailing ``---``) are dropped.  Raises
    :class:`YamlParseError` when the text is not valid YAML.
    """

    try:
        docs = parse_yaml(text, lambda loader: list(yaml.load_all(text, Loader=loader)))
    except yaml.YAMLError as exc:
        raise YamlParseError(f"invalid YAML: {exc}") from exc
    return [d for d in docs if d is not None]


def load_document(text: str) -> Any:
    """Parse ``text`` expecting exactly one YAML document."""

    docs = load_all_documents(text)
    if not docs:
        raise YamlParseError("no YAML document found")
    if len(docs) > 1:
        raise YamlParseError(f"expected a single YAML document, found {len(docs)}")
    return docs[0]


def is_valid_yaml(text: str, require_mapping: bool = False) -> bool:
    """Return True when ``text`` parses as YAML.

    With ``require_mapping`` every parsed document must be a mapping, which
    is the shape of every Kubernetes/Envoy/Istio configuration in the
    dataset; a bare scalar (for example a prose answer) does not count.
    """

    try:
        docs = load_all_documents(text)
    except YamlParseError:
        return False
    if not docs:
        return False
    if require_mapping:
        return all(isinstance(d, dict) for d in docs)
    return True


def dump_document(doc: Any) -> str:
    """Serialise a document back to YAML with stable formatting."""

    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
