"""The universal query module (§3.1).

The paper's query module hides the differences between local and remote
model APIs behind a single interface and parallelises requests (with ray
for remote endpoints, batched inference for local ones).  The offline
equivalent keeps the same shape: a :class:`Model` protocol, a
:class:`GenerationRequest` unit of work, and a :class:`QueryModule` that
fans requests out over a thread pool and returns responses in order.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.dataset.problem import Problem
from repro.llm.prompt import build_prompt
from repro.utils.pools import LazyPool
from repro.utils.ratelimit import TokenBucket

__all__ = [
    "Model",
    "AsyncModel",
    "GenerationRequest",
    "GenerationResult",
    "QueryModule",
]


@runtime_checkable
class Model(Protocol):
    """Anything that can answer a benchmark problem.

    The simulated models implement this; a thin wrapper around a real HTTP
    endpoint could too, which is how the benchmark would be pointed at live
    models outside this offline environment.
    """

    @property
    def name(self) -> str:  # pragma: no cover - protocol definition
        ...

    def generate(self, problem: Problem, shots: int = 0, sample_index: int = 0) -> str:  # pragma: no cover
        ...


@runtime_checkable
class AsyncModel(Protocol):
    """A model whose generation is awaitable.

    Remote endpoints spend almost all of their per-request time waiting on
    the network; a model that implements ``generate_async`` lets the query
    module overlap those waits under bounded concurrency instead of paying
    them one after another.  Responses must match the synchronous
    ``generate`` for the same ``(problem, shots, sample_index)`` so the
    async path can never change a score.
    """

    async def generate_async(
        self, problem: Problem, shots: int = 0, sample_index: int = 0
    ) -> str:  # pragma: no cover - protocol definition
        ...


@dataclass(frozen=True)
class GenerationRequest:
    """One unit of generation work."""

    problem: Problem
    shots: int = 0
    sample_index: int = 0

    def prompt(self) -> str:
        """The full prompt text that would be sent to a real endpoint."""

        return build_prompt(self.problem, shots=self.shots)


@dataclass(frozen=True)
class GenerationResult:
    """A raw response paired with its originating request.

    ``error`` is non-empty when the model raised instead of answering; the
    response is then empty and the result still flows through scoring (an
    empty answer scores zero everywhere), so one bad request never aborts
    a batch.
    """

    request: GenerationRequest
    response: str
    model_name: str
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether the model produced a response (no captured exception)."""

        return not self.error


class QueryModule:
    """Dispatch generation requests to a model, optionally in parallel.

    ``max_workers=1`` (the default) runs sequentially, which is the most
    reproducible and is plenty fast for simulated models.  Higher values
    mirror the paper's ray-based parallel querying of rate-limited remote
    APIs; results are always returned in request order regardless.
    """

    def __init__(self, model: Model, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.model = model
        self.max_workers = max_workers
        # The persistent request pool: building a ThreadPoolExecutor per
        # query_batch call paid thread spawn/join on every batch of a
        # streaming run; this one lives until close().
        self._pool = LazyPool(
            lambda: ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="query-module"
            )
        )

    def close(self) -> None:
        """Shut down the persistent pool (a later batch recreates it)."""

        self._pool.close()

    def __enter__(self) -> "QueryModule":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def query(self, request: GenerationRequest) -> GenerationResult:
        """Run a single request; a model exception propagates to the caller."""

        response = self.model.generate(
            request.problem, shots=request.shots, sample_index=request.sample_index
        )
        return GenerationResult(request=request, response=response, model_name=self.model.name)

    def _query_captured(self, request: GenerationRequest) -> GenerationResult:
        """Run one request, converting a model exception into a failed result.

        The one place a failed request becomes ``error = "{Type}:
        {message}"`` with an empty response: the parent's generate stage
        and the offloaded :func:`~repro.pipeline.stages.run_generation_task`
        both capture here, and the async path shares :meth:`_failed`.
        """

        try:
            return self.query(request)
        except Exception as exc:  # noqa: BLE001 - isolate per-request failures
            return self._failed(request, exc)

    def _failed(self, request: GenerationRequest, exc: Exception) -> GenerationResult:
        return GenerationResult(
            request=request,
            response="",
            model_name=self.model.name,
            error=f"{type(exc).__name__}: {exc}",
        )

    def query_batch(self, requests: Sequence[GenerationRequest]) -> list[GenerationResult]:
        """Run a batch of requests, preserving order.

        Per-request exceptions are captured into failed results (see
        :class:`GenerationResult.error`) rather than aborting the batch —
        real endpoints time out and rate-limit individual calls, and one
        flaky request must not discard hundreds of finished ones.
        """

        if self.max_workers == 1 or len(requests) <= 1:
            return [self._query_captured(request) for request in requests]
        return list(self._pool.get().map(self._query_captured, requests))

    async def query_batch_async(
        self,
        requests: Sequence[GenerationRequest],
        *,
        max_concurrency: int | None = None,
        limiter: TokenBucket | None = None,
    ) -> list[GenerationResult]:
        """Run a batch concurrently on the event loop, preserving order.

        Requests are dispatched under an ``asyncio`` semaphore of
        ``max_concurrency`` (default: this module's ``max_workers``) and,
        when a :class:`~repro.utils.ratelimit.TokenBucket` is given, each
        one first takes a token — the paper's rate-limited remote querying
        as an explicit knob.  Models implementing :class:`AsyncModel`
        overlap their waits; synchronous models are called inline, which
        degrades to ordered sequential execution with identical results.
        Per-request exceptions are captured exactly as in
        :meth:`query_batch`.
        """

        semaphore = asyncio.Semaphore(max(1, max_concurrency or self.max_workers))
        is_async = isinstance(self.model, AsyncModel) and hasattr(self.model, "generate_async")

        async def one(request: GenerationRequest) -> GenerationResult:
            async with semaphore:
                if limiter is not None:
                    await limiter.acquire_async()
                try:
                    if is_async:
                        response = await self.model.generate_async(
                            request.problem,
                            shots=request.shots,
                            sample_index=request.sample_index,
                        )
                        return GenerationResult(
                            request=request, response=response, model_name=self.model.name
                        )
                    return self._query_captured(request)
                except Exception as exc:  # noqa: BLE001 - isolate per-request failures
                    return self._failed(request, exc)

        return list(await asyncio.gather(*(one(request) for request in requests)))

    def query_problems(
        self,
        problems: Iterable[Problem],
        shots: int = 0,
        samples: int = 1,
    ) -> list[GenerationResult]:
        """Generate ``samples`` responses for every problem."""

        requests = [
            GenerationRequest(problem=problem, shots=shots, sample_index=sample)
            for problem in problems
            for sample in range(samples)
        ]
        return self.query_batch(requests)
