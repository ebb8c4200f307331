"""Tests for the line-level edit-distance metric."""

from __future__ import annotations

import difflib
import random

from repro.yamlkit.diffing import (
    changed_lines,
    line_edit_distance,
    line_edit_distance_lines,
    scaled_edit_similarity,
    significant_lines,
)

REFERENCE = """apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  ports:
  - port: 80
"""


def test_identical_texts_have_zero_distance():
    assert line_edit_distance(REFERENCE, REFERENCE) == 0
    assert scaled_edit_similarity(REFERENCE, REFERENCE) == 1.0


def test_blank_lines_are_ignored():
    noisy = REFERENCE.replace("spec:", "spec:\n\n")
    assert line_edit_distance(noisy, REFERENCE) == 0


def test_single_changed_line_counts_two_edits():
    changed = REFERENCE.replace("port: 80", "port: 8080")
    assert line_edit_distance(changed, REFERENCE) == 2


def test_similarity_decreases_with_more_edits():
    one = REFERENCE.replace("port: 80", "port: 8080")
    two = one.replace("name: web", "name: other")
    assert scaled_edit_similarity(two, REFERENCE) < scaled_edit_similarity(one, REFERENCE)


def test_empty_generated_scores_zero():
    assert scaled_edit_similarity("", REFERENCE) == 0.0


def test_empty_reference_edge_cases():
    assert scaled_edit_similarity("", "") == 1.0
    assert scaled_edit_similarity("something", "") == 0.0


def test_similarity_clamped_at_zero_for_unrelated_text():
    unrelated = "\n".join(f"line-{i}: value" for i in range(30))
    assert scaled_edit_similarity(unrelated, REFERENCE) == 0.0


def test_changed_lines_reports_both_directions():
    changed = REFERENCE.replace("port: 80", "port: 8080")
    missing, extra = changed_lines(changed, REFERENCE)
    assert any("80" in line for line in missing)
    assert any("8080" in line for line in extra)


# ---------------------------------------------------------------------------
# The matched-block count equals difflib.Differ's -/+ entries
# ---------------------------------------------------------------------------

def _differ_count(gen_lines, ref_lines):
    entries = difflib.Differ().compare(ref_lines, gen_lines)
    return sum(1 for entry in entries if entry.startswith(("- ", "+ ")))


def _mutate(lines, pool, rng):
    lines = list(lines)
    for _ in range(rng.randint(0, 6)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, rng.choice(lines))
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice("ab :-") + lines[i][k:]
        else:
            lines.insert(i, rng.choice(pool))
    return lines


def test_distance_matches_differ_on_model_answers(small_dataset, small_benchmark_result):
    checked = 0
    for name in small_benchmark_result.models():
        for record in small_benchmark_result[name].records:
            gen = significant_lines(record.scores.extracted_yaml)
            ref = significant_lines(small_dataset.get(record.problem_id).reference_plain())
            assert line_edit_distance_lines(gen, ref) == _differ_count(gen, ref)
            checked += 1
    assert checked > 100


def test_distance_matches_differ_on_mutated_references(small_dataset):
    rng = random.Random(7)
    references = [significant_lines(problem.reference_plain()) for problem in small_dataset]
    pool = [line for lines in references for line in lines]
    for _ in range(1500):
        ref = rng.choice(references)
        gen = _mutate(ref, pool, rng)
        assert line_edit_distance_lines(gen, ref) == _differ_count(gen, ref)
        assert line_edit_distance_lines(ref, gen) == _differ_count(ref, gen)


def test_distance_matches_differ_on_repeated_lines_of_any_length():
    """Few distinct lines repeated up to past the 200-line junk threshold."""

    rng = random.Random(11)
    for _ in range(300):
        alphabet = [rng.choice(["a: 1", "a: 2", "- x", "- y", "  k: v"]) for _ in range(rng.randint(1, 4))]
        gen = [rng.choice(alphabet) for _ in range(rng.randint(0, 230))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 60))]
        assert line_edit_distance_lines(gen, ref) == _differ_count(gen, ref)


def test_long_answer_pairs_a_frequent_line_like_differ():
    """Past 200 generated lines a line repeated often is junk to the
    matcher, and Differ pairs its identical copies without an edit."""

    gen = ["q"] + ["- x"] * 4 + [f"k{i}: v" for i in range(195)] + ["a: 1"]
    ref = ["p", "- x", "a: 1"]
    assert line_edit_distance_lines(gen, ref) == _differ_count(gen, ref) == 200
