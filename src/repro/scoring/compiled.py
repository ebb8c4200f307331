"""Compiled-reference scoring engine.

Every problem's reference is immutable, yet the legacy scoring path
re-derived all reference-side artifacts — the stripped plain text, the
normalized comparison text, the significant-line list, the BLEU token
sequence and n-gram counts, the parsed documents and the labeled wildcard
tree — on *every* :func:`~repro.scoring.aggregate.score_answer` call.  At
benchmark scale (12 models x 1011 problems x multi-sample sweeps) that is
tens of thousands of redundant YAML parses.

This module precomputes those artifacts once per distinct reference text
into a :class:`CompiledReference` (cached on the
:class:`~repro.dataset.problem.Problem` instance and optionally in a
:class:`ReferenceStore`), scores answers against the compiled form, and
provides :func:`score_batch` — the batch entry point that additionally
dedupes identical ``(problem_id, response)`` pairs and can fan work out
over a thread or process pool.  Score-cache keys come from
:func:`reference_digest`, which needs no compilation, so a reference is
compiled only when one of its answers misses the cache.

The compiled path is numerically identical to the legacy string path; the
equivalence is asserted over the full dataset by
``tests/scoring/test_compiled_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.dataset.problem import Problem
from repro.mlkit.bleu import ReferenceNgrams, compile_reference_ngrams, sentence_bleu_compiled
from repro.mlkit.tokenize import yaml_tokenize
from repro.postprocess import extract_yaml
from repro.scoring.aggregate import ScoreCard
from repro.scoring.text_level import normalize_text
from repro.scoring.yaml_aware import (
    key_value_exact_match_docs,
    key_value_wildcard_match_docs,
    load_match_documents,
)
from repro.testexec.executor import execute_unit_test
from repro.testexec.steps import UnitTestProgram
from repro.yamlkit.diffing import scaled_edit_similarity_lines, significant_lines
from repro.yamlkit.labels import LabeledNode, parse_labeled_yaml, strip_labels
from repro.yamlkit.parsing import YamlParseError, load_all_documents

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scoring.cache import ScoreCache

__all__ = [
    "CompiledReference",
    "ReferenceStore",
    "ScoreTask",
    "answer_digest",
    "compile_reference",
    "get_compiled_reference",
    "peek_compiled_reference",
    "reference_digest",
    "score_answer_compiled",
    "score_extracted",
    "score_batch",
    "run_score_task",
    "warm_reference_store",
]

#: Attribute used to cache the compiled reference on the Problem instance.
#: ``Problem`` is a frozen dataclass, so the cache is attached through
#: ``object.__setattr__``; the artifact is derived purely from immutable
#: fields, so this does not break value semantics.
_CACHE_ATTR = "_compiled_reference"

#: Attribute used to memoise :func:`reference_digest` on the Problem
#: instance, under the same discipline as :data:`_CACHE_ATTR`.
_DIGEST_ATTR = "_reference_digest"

#: The first compiled reference built in this process for each reference
#: text.  Every content artifact depends only on the text, so a later
#: problem with the same text reuses them (see :func:`get_compiled_reference`).
_COMPILED_BY_TEXT: dict[str, "CompiledReference"] = {}


def _digest_of(problem_id: str, reference_yaml: str, unit_test: UnitTestProgram) -> str:
    """The reference digest: SHA-256 of the reference-side scoring inputs."""

    payload = json.dumps(
        {
            "problem_id": problem_id,
            "reference_yaml": reference_yaml,
            "unit_test": unit_test.to_dict(),
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompiledReference:
    """Every reference-side artifact the six metrics need, computed once.

    Attributes
    ----------
    reference_plain:
        Reference YAML with label comments stripped (the ideal answer).
    normalized_plain:
        :func:`~repro.scoring.text_level.normalize_text` of the plain text,
        compared against normalized candidates for exact match.
    reference_lines:
        Significant lines of the plain text for the edit-distance metric.
    reference_ngrams:
        Per-order n-gram ``Counter``s plus token length for BLEU.
    reference_documents:
        Parsed plain documents for key-value exact match, or ``None`` when
        the reference does not parse into containers.
    labeled_tree:
        The :class:`~repro.yamlkit.labels.LabeledNode` wildcard tree, or
        ``None`` when the labeled reference does not parse.
    """

    problem_id: str
    reference_yaml: str
    reference_plain: str
    normalized_plain: str
    reference_lines: tuple[str, ...]
    reference_tokens: tuple[str, ...]
    reference_ngrams: ReferenceNgrams
    reference_documents: tuple[Any, ...] | None
    labeled_tree: LabeledNode | None
    unit_test: UnitTestProgram

    @property
    def digest(self) -> str:
        """Stable content digest of every reference-side scoring input.

        Covers the problem id, the labeled reference YAML and the
        serialised unit-test program — each of the six metrics is a pure
        function of these plus the extracted answer, so
        ``(digest, answer_digest, scorer version)`` content-addresses a
        ScoreCard across runs, machines and tenants.  The derived
        artifacts (lines, n-grams, parsed docs) are deterministic
        functions of these inputs and deliberately excluded: hashing them
        would only make the digest sensitive to representation details.
        The value is cached on the instance (same discipline as the
        Problem-side compilation cache).
        """

        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = _digest_of(self.problem_id, self.reference_yaml, self.unit_test)
            object.__setattr__(self, "_digest", cached)
        return cached


def reference_digest(problem: Problem) -> str:
    """``CompiledReference.digest`` of ``problem``, without compiling it.

    Both hash the same payload, so a score-cache key built from either is
    the same key.  Lookups use this one: a cache hit then costs a hash,
    never a reference compile.  The value is memoised on the ``Problem``
    instance and, like the compiled reference, left out of its pickles.
    """

    cached = problem.__dict__.get(_DIGEST_ATTR)
    if cached is None:
        cached = _digest_of(problem.problem_id, problem.reference_yaml, problem.unit_test)
        object.__setattr__(problem, _DIGEST_ATTR, cached)
    return cached


def answer_digest(extracted: str) -> str:
    """Content digest of an extracted (post-processed) answer.

    Taken over the extracted YAML rather than the raw response: every
    metric depends only on the extracted text, so prose-wrapped variants
    of one answer share a digest — the same key the in-run dedupe uses.
    """

    return hashlib.sha256(extracted.encode("utf-8")).hexdigest()


def compile_reference(problem: Problem) -> CompiledReference:
    """Precompute every reference-side scoring artifact for ``problem``."""

    reference_plain = strip_labels(problem.reference_yaml)
    tokens = yaml_tokenize(reference_plain)
    try:
        labeled_tree: LabeledNode | None = parse_labeled_yaml(problem.reference_yaml)
    except YamlParseError:
        labeled_tree = None
    documents = load_match_documents(reference_plain)
    return CompiledReference(
        problem_id=problem.problem_id,
        reference_yaml=problem.reference_yaml,
        reference_plain=reference_plain,
        normalized_plain=normalize_text(reference_plain),
        reference_lines=tuple(significant_lines(reference_plain)),
        reference_tokens=tuple(tokens),
        reference_ngrams=compile_reference_ngrams(tokens),
        reference_documents=None if documents is None else tuple(documents),
        labeled_tree=labeled_tree,
        unit_test=problem.unit_test,
    )


def get_compiled_reference(problem: Problem) -> CompiledReference:
    """Return the problem's compiled reference, compiling on first use.

    The result is cached on the ``Problem`` instance, so every consumer of
    the same dataset (benchmarks, analysis, tests) shares one compilation.
    Across problems, a process compiles each distinct reference text once:
    a later problem with the same text gets the first compilation with its
    own ``problem_id`` and ``unit_test``, sharing every content artifact
    (plain and normalized text, lines, tokens, n-grams, documents and the
    labeled tree), which scoring only ever reads.
    """

    cached = problem.__dict__.get(_CACHE_ATTR)
    if cached is not None:
        return cached
    prior = _COMPILED_BY_TEXT.get(problem.reference_yaml)
    if prior is None:
        compiled = _COMPILED_BY_TEXT[problem.reference_yaml] = compile_reference(problem)
    else:
        compiled = dataclasses.replace(prior, problem_id=problem.problem_id, unit_test=problem.unit_test)
    object.__setattr__(problem, _CACHE_ATTR, compiled)
    return compiled


def peek_compiled_reference(problem: Problem) -> CompiledReference | None:
    """The instance-cached compiled reference, or None — never compiles.

    Process-pool task envelopes use this to ship an already-paid-for
    compilation to the worker instead of making the worker redo it, while
    a cold problem ships bare (compiling in the parent here would
    serialise exactly the work the pool exists to spread out).
    """

    return problem.__dict__.get(_CACHE_ATTR)


class ReferenceStore:
    """A ProblemSet-level store of compiled references.

    :func:`get_compiled_reference` already makes compilation a cost paid
    once per distinct reference text in a process; the store adds an
    explicit, inspectable handle — benchmarks share one across models, and
    it can be precompiled up front to move every compile out of the
    scoring loop.  Score-cache lookups never go through it: they key on
    :func:`reference_digest`, so only a miss asks the store to compile.
    """

    def __init__(self) -> None:
        self._by_key: dict[tuple[str, str], CompiledReference] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, problem: Problem) -> CompiledReference:
        key = (problem.problem_id, problem.reference_yaml)
        compiled = self._by_key.get(key)
        if compiled is None:
            compiled = get_compiled_reference(problem)
            self._by_key[key] = compiled
        return compiled

    def peek(self, problem: Problem) -> CompiledReference | None:
        """An already-compiled reference from this store or the instance
        cache, or None — never triggers compilation."""

        key = (problem.problem_id, problem.reference_yaml)
        return self._by_key.get(key) or peek_compiled_reference(problem)

    def precompile(self, problems: Iterable[Problem]) -> "ReferenceStore":
        """Eagerly compile every problem's reference; returns self."""

        for problem in problems:
            self.get(problem)
        return self


def score_answer_compiled(
    compiled: CompiledReference,
    raw_response: str,
    run_unit_tests: bool = True,
) -> ScoreCard:
    """Score one raw response against a compiled reference.

    The candidate is post-processed and parsed exactly once (the legacy
    path parsed it separately for each YAML-aware metric); all reference
    artifacts come precomputed from ``compiled``.
    """

    return score_extracted(compiled, extract_yaml(raw_response), run_unit_tests)


def score_extracted(compiled: CompiledReference, extracted: str, run_unit_tests: bool) -> ScoreCard:
    """Score an already post-processed answer against a compiled reference.

    The candidate is parsed exactly once; the document list (or the parse
    error) is shared between the key-value metrics and the unit-test
    executor, which re-parsed the answer on every apply in the legacy path.
    """

    parsed_answer: list[Any] | YamlParseError
    try:
        parsed_answer = load_all_documents(extracted)
    except YamlParseError as exc:
        parsed_answer = exc

    if isinstance(parsed_answer, YamlParseError):
        generated_docs = None
    elif not parsed_answer or not all(isinstance(d, (dict, list)) for d in parsed_answer):
        generated_docs = None
    else:
        generated_docs = parsed_answer
    reference_docs = None if compiled.reference_documents is None else list(compiled.reference_documents)

    unit_test_value = 0.0
    failure_message = ""
    if run_unit_tests:
        result = execute_unit_test(compiled.unit_test, extracted, parsed_answer)
        unit_test_value = result.score
        failure_message = result.message

    return ScoreCard(
        problem_id=compiled.problem_id,
        bleu=sentence_bleu_compiled(yaml_tokenize(extracted), compiled.reference_ngrams),
        edit_distance=scaled_edit_similarity_lines(significant_lines(extracted), list(compiled.reference_lines)),
        exact_match=1.0 if normalize_text(extracted) == compiled.normalized_plain else 0.0,
        kv_exact=key_value_exact_match_docs(generated_docs, reference_docs),
        kv_wildcard=key_value_wildcard_match_docs(generated_docs, compiled.labeled_tree),
        unit_test=unit_test_value,
        extracted_yaml=extracted,
        failure_message=failure_message,
    )


# ---------------------------------------------------------------------------
# Process-pool scoring envelopes
# ---------------------------------------------------------------------------

#: The per-process reference store used by :func:`run_score_task`.  In a
#: ``ProcessPoolExecutor`` worker this memoises compiled references across
#: every task the worker handles (pickled ``Problem`` copies are distinct
#: instances, so the per-instance cache alone would recompile per task).
_PROCESS_STORE: ReferenceStore | None = None


def warm_reference_store(problems: Iterable[Problem] = ()) -> ReferenceStore:
    """Create (and optionally precompile) this process's reference store.

    Intended as a ``ProcessPoolExecutor`` initializer: pass a problem
    tuple via ``initargs`` and every worker compiles each reference once
    at boot, moving all compilation off the scoring critical path.  Safe
    to call repeatedly — later calls only add missing problems.
    """

    global _PROCESS_STORE
    if _PROCESS_STORE is None:
        _PROCESS_STORE = ReferenceStore()
    return _PROCESS_STORE.precompile(problems)


@dataclass(frozen=True)
class ScoreTask:
    """A picklable unit of scoring work for process-backed executors.

    The envelope carries the raw ``Problem`` (pickled without its instance
    caches, so it stays small) plus — when the parent process had already
    compiled the reference — the compiled artifact itself: shipping a
    paid-for compilation is pure IPC bytes, while recompiling it in every
    worker is pure wasted CPU.  A cold problem ships bare and the
    worker-side store compiles it at most once per process.
    """

    problem: Problem
    extracted: str
    run_unit_tests: bool = True
    compiled: CompiledReference | None = None


def run_score_task(task: ScoreTask) -> ScoreCard:
    """Score one envelope, preferring its pre-shipped compiled reference."""

    compiled = task.compiled
    if compiled is None:
        compiled = warm_reference_store().get(task.problem)
    return score_extracted(compiled, task.extracted, task.run_unit_tests)


# ---------------------------------------------------------------------------
# Batch scoring
# ---------------------------------------------------------------------------

def _score_task(task: tuple[CompiledReference, str, bool]) -> ScoreCard:
    compiled, extracted, run_unit_tests = task
    return score_extracted(compiled, extracted, run_unit_tests)


def score_batch(
    items: Iterable[tuple[Problem, str]],
    *,
    run_unit_tests: bool = True,
    store: ReferenceStore | None = None,
    max_workers: int | None = None,
    executor: str = "process",
    cache: "ScoreCache | None" = None,
) -> list[ScoreCard]:
    """Score a batch of ``(problem, raw_response)`` pairs.

    Responses are post-processed up front and deduped on the *extracted*
    YAML: multi-sample and few-shot sweeps frequently repeat responses, and
    different models often produce the same answer modulo prose wrapping
    (every metric depends only on the extracted text).  Each unique
    ``(problem_id, extracted)`` pair is scored once and the resulting
    ``ScoreCard`` is shared.  Results come back in input order.

    Parameters
    ----------
    store:
        Optional :class:`ReferenceStore`; compiled references are shared
        through the per-problem instance cache and the per-text map of
        :func:`get_compiled_reference` either way.
    max_workers:
        With a value > 1, unique pairs are fanned out over a pool;
        otherwise scoring is sequential (deterministic by construction in
        both cases — the metrics are pure functions).
    executor:
        ``"process"`` (default) or ``"thread"`` — which pool to use when
        ``max_workers`` enables fan-out.
    cache:
        Optional :class:`~repro.scoring.cache.ScoreCache` layered *above*
        the in-run dedupe: unique pairs whose content-addressed key is
        already cached skip scoring entirely (and never reach the pool),
        and every freshly scored pair is written back once — so a repeat
        of this batch in a later run, or by another tenant sharing the
        cache file, is served in O(1) per pair.  The key's reference half
        is :func:`reference_digest`, so a hit never compiles a reference;
        only the misses are compiled.
    """

    pairs = [(problem, response) for problem, response in items]
    lookup = store.get if store is not None else get_compiled_reference

    keys: list[tuple[str, str]] = []
    unique: dict[tuple[str, str], Problem] = {}
    cached: dict[tuple[str, str], ScoreCard] = {}
    for problem, response in pairs:
        extracted = extract_yaml(response)
        key = (problem.problem_id, extracted)
        keys.append(key)
        if key in unique or key in cached:
            continue
        if cache is not None:
            hit = cache.get(reference_digest(problem), answer_digest(extracted), run_unit_tests)
            if hit is not None:
                cached[key] = hit
                continue
        unique[key] = problem

    unique_keys = list(unique)
    tasks = [(lookup(unique[key]), key[1], run_unit_tests) for key in unique_keys]

    if max_workers and max_workers > 1 and len(tasks) > 1:
        if executor == "thread":
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                cards = list(pool.map(_score_task, tasks))
        elif executor == "process":
            chunksize = max(1, len(tasks) // (max_workers * 4))
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                cards = list(pool.map(_score_task, tasks, chunksize=chunksize))
        else:
            raise ValueError(f"unknown executor {executor!r} (expected 'process' or 'thread')")
    else:
        cards = [_score_task(task) for task in tasks]

    if cache is not None and tasks:
        # Write every freshly scored unique pair back — one durable append
        # for the whole batch.
        cache.put_batch(
            (reference_digest(unique[key]), answer_digest(key[1]), card, run_unit_tests)
            for key, card in zip(unique_keys, cards)
        )

    by_key = dict(zip(unique_keys, cards))
    by_key.update(cached)
    return [by_key[key] for key in keys]
