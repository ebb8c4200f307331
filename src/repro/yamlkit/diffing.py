"""Line-level diffing used by the edit-distance metric.

The paper computes the edit-distance score as::

    1 - edit_distance / len(reference_YAML)

where the edit distance counts the number of line edits reported by
``difflib.Differ`` between the generated and the reference YAML.  We keep
that definition, clamping to [0, 1] so pathological answers (much longer
than the reference) do not produce negative scores.
"""

from __future__ import annotations

import difflib

__all__ = [
    "significant_lines",
    "line_edit_distance",
    "line_edit_distance_lines",
    "scaled_edit_similarity",
    "scaled_edit_similarity_lines",
    "changed_lines",
]


def significant_lines(text: str) -> list[str]:
    """Split into lines, dropping blank lines and trailing whitespace."""

    return [line.rstrip() for line in text.splitlines() if line.strip()]


# Backwards-compatible private alias (pre-compiled-reference name).
_significant_lines = significant_lines


#: ``difflib.SequenceMatcher`` treats lines as junk ("popular") only when
#: the second sequence has at least this many entries.
_AUTOJUNK_MIN_LINES = 200


def line_edit_distance_lines(gen_lines: list[str], ref_lines: list[str]) -> int:
    """Edit distance between two pre-split significant-line lists.

    ``Differ.compare`` marks every line outside the matching blocks with one
    ``-`` or ``+`` entry: a line it pairs with a similar one inside a
    replaced block still yields a ``-`` and a ``+``, and only a pair of
    identical lines yields neither.  Without junk such a pair never falls
    outside the matching blocks, so the count is the unmatched lines of
    both sides, and the intraline pairing is skipped.  Past
    :data:`_AUTOJUNK_MIN_LINES` generated lines frequent lines become junk
    and can be left unmatched, so those answers take the full ``Differ``.
    """

    if len(gen_lines) < _AUTOJUNK_MIN_LINES:
        matcher = difflib.SequenceMatcher(None, ref_lines, gen_lines)
        matched = sum(block.size for block in matcher.get_matching_blocks())
        return len(ref_lines) + len(gen_lines) - 2 * matched
    differ = difflib.Differ()
    distance = 0
    for entry in differ.compare(ref_lines, gen_lines):
        if entry.startswith(("- ", "+ ")):
            distance += 1
    return distance


def line_edit_distance(generated: str, reference: str) -> int:
    """Number of added/removed lines between the two texts.

    A changed line counts as one removal plus one addition, matching the
    behaviour of ``difflib.Differ`` which reports ``-`` and ``+`` entries.
    """

    return line_edit_distance_lines(significant_lines(generated), significant_lines(reference))


def changed_lines(generated: str, reference: str) -> tuple[list[str], list[str]]:
    """Return (missing_from_generated, extra_in_generated) line lists."""

    gen_lines = significant_lines(generated)
    ref_lines = significant_lines(reference)
    differ = difflib.Differ()
    missing: list[str] = []
    extra: list[str] = []
    for entry in differ.compare(ref_lines, gen_lines):
        if entry.startswith("- "):
            missing.append(entry[2:])
        elif entry.startswith("+ "):
            extra.append(entry[2:])
    return missing, extra


def scaled_edit_similarity_lines(gen_lines: list[str], ref_lines: list[str]) -> float:
    """:func:`scaled_edit_similarity` over pre-split significant-line lists."""

    if not ref_lines:
        return 1.0 if not gen_lines else 0.0
    # Paper formula: 1 - edit_distance / len(reference_YAML).  A fully
    # rewritten answer can exceed the reference length in line edits, so the
    # score is clamped at 0 to stay within [0, 1].
    distance = line_edit_distance_lines(gen_lines, ref_lines)
    return max(0.0, 1.0 - distance / float(len(ref_lines)))


def scaled_edit_similarity(generated: str, reference: str) -> float:
    """Edit-distance similarity scaled by the size of the reference.

    Returns a score in [0, 1]; 1 means the generated text is line-identical
    to the reference (ignoring blank lines), 0 means the edit distance is at
    least as large as the reference itself.
    """

    return scaled_edit_similarity_lines(significant_lines(generated), significant_lines(reference))
