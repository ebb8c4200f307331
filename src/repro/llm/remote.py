"""Remote-endpoint adapters: simulated latency and real live endpoints.

The paper's query module exists because remote endpoints are slow and
rate-limited: each request spends tens to hundreds of milliseconds on the
wire, and the only way to finish a 1000-problem sweep in reasonable time
is to keep many requests in flight (§3.1, ray in the original).

Two adapters model that workload shape:

* :class:`RemoteEndpointModel` turns any deterministic local model into
  it.  It answers with exactly the wrapped model's responses but charges
  a per-request network latency: the synchronous ``generate`` blocks (as
  a naive sequential client would), while ``generate_async`` awaits the
  same latency on the event loop so the async query path can overlap
  hundreds of in-flight requests.  Scores are therefore bit-identical
  between the wrapped and unwrapped model — only the wall-clock differs.
* :class:`LiveEndpointModel` is the *real* thing: a
  :class:`~repro.llm.interface.Model`/:class:`~repro.llm.interface.AsyncModel`
  adapter over an actual endpoint, with wall-clock
  :class:`~repro.utils.ratelimit.TokenBucket` pacing and
  retry-with-backoff on transient errors.  The endpoint itself is
  abstracted as a *transport* — any callable ``(prompt) -> response`` —
  so the adapter is testable offline and pluggable onto any provider;
  :func:`http_transport` builds one over stdlib ``urllib`` for plain
  JSON-over-HTTP endpoints.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.dataset.problem import Problem
from repro.llm.interface import Model
from repro.llm.prompt import build_prompt
from repro.utils.backoff import BackoffPolicy
from repro.utils.faults import FaultInjector, null_injector
from repro.utils.ratelimit import TokenBucket
from repro.utils.rng import DeterministicRNG

__all__ = [
    "EndpointError",
    "LiveEndpointModel",
    "ModelSpec",
    "RemoteEndpointModel",
    "ReplayTransport",
    "TransientEndpointError",
    "http_transport",
]


class EndpointError(RuntimeError):
    """A live endpoint failed in a way retrying cannot fix (4xx, bad payload)."""


class TransientEndpointError(EndpointError):
    """A live endpoint failed transiently (timeout, 429, 5xx); retry may succeed."""


class RemoteEndpointModel:
    """Wrap ``inner`` as a simulated remote endpoint with per-request latency.

    Parameters
    ----------
    inner:
        The model actually producing responses.
    latency_seconds:
        Mean one-way service time per request.
    jitter_seconds:
        Half-width of the deterministic per-request latency spread; the
        latency of a request depends only on ``(problem_id, sample_index,
        seed)``, so repeated runs see identical delays.
    seed:
        Seed of the latency jitter.
    """

    def __init__(
        self,
        inner: Model,
        latency_seconds: float = 0.05,
        jitter_seconds: float = 0.0,
        seed: int = 1,
    ) -> None:
        if latency_seconds < 0 or jitter_seconds < 0:
            raise ValueError("latencies must be non-negative")
        self.inner = inner
        self.latency_seconds = latency_seconds
        self.jitter_seconds = jitter_seconds
        self.seed = seed
        #: Total network time charged so far (sum over requests, not wall time).
        self.latency_charged = 0.0

    @property
    def name(self) -> str:
        return self.inner.name

    def request_latency(self, problem: Problem, sample_index: int = 0) -> float:
        """The deterministic latency this request pays."""

        if self.jitter_seconds == 0.0:
            return self.latency_seconds
        rng = DeterministicRNG(self.seed).child("remote-latency", problem.problem_id, sample_index)
        return max(0.0, self.latency_seconds + rng.uniform(-self.jitter_seconds, self.jitter_seconds))

    def generate(self, problem: Problem, shots: int = 0, sample_index: int = 0) -> str:
        delay = self.request_latency(problem, sample_index)
        self.latency_charged += delay
        if delay > 0:
            time.sleep(delay)
        return self.inner.generate(problem, shots=shots, sample_index=sample_index)

    async def generate_async(self, problem: Problem, shots: int = 0, sample_index: int = 0) -> str:
        delay = self.request_latency(problem, sample_index)
        self.latency_charged += delay
        if delay > 0:
            await asyncio.sleep(delay)
        return self.inner.generate(problem, shots=shots, sample_index=sample_index)


class LiveEndpointModel:
    """A real live endpoint behind the :class:`~repro.llm.interface.Model`
    and :class:`~repro.llm.interface.AsyncModel` protocols.

    Parameters
    ----------
    name:
        The leaderboard name of the endpoint's model (keys checkpoints,
        results, and the score cache's per-model counters).
    transport:
        ``(prompt) -> response text``: the one network call.  It raises
        :class:`TransientEndpointError` for failures worth retrying and
        :class:`EndpointError` (or anything else) for permanent ones.
    async_transport:
        Optional awaitable variant used by ``generate_async``; without
        one, the synchronous transport runs on the event loop's default
        executor so request latencies still overlap.
    limiter:
        Wall-clock :class:`~repro.utils.ratelimit.TokenBucket` pacing
        *attempts* (every retry takes a fresh token — a retried request
        must not cut the rate-limit queue).  A virtual-clock bucket is
        rejected: fast-forwarding does not slow real traffic down.
    max_retries:
        How many times a :class:`TransientEndpointError` is retried
        before it propagates (total attempts = ``max_retries + 1``).
    backoff_seconds / backoff_multiplier:
        Deterministic exponential backoff slept between attempts:
        ``backoff_seconds * backoff_multiplier**retry_index``, capped at
        60 seconds.  Sugar over ``backoff`` — pass an explicit
        :class:`~repro.utils.backoff.BackoffPolicy` for a different cap,
        budget, or seeded jitter (the policy's ``attempts`` then defines
        the retry budget and ``max_retries`` is ignored).
    backoff:
        The full retry schedule as a shared
        :class:`~repro.utils.backoff.BackoffPolicy` — the same type the
        fleet's ``RemoteStore`` reconnects with.
    injector:
        Optional :class:`~repro.utils.faults.FaultInjector` for chaos
        tests: the ``endpoint.request`` site fires per attempt with the
        problem id as detail (``transient`` raises a retryable
        :class:`TransientEndpointError` through the normal retry path,
        ``delay`` sleeps before the request).
    sleep / async_sleep:
        Injectable sleep functions (tests pass recorders; production
        leaves the defaults).

    Responses are whatever the endpoint returns for the built prompt, so
    determinism is the endpoint's contract, not this adapter's; pair it
    with the content-addressed score cache so repeated answers are scored
    once no matter how the endpoint phrases its latency.
    """

    def __init__(
        self,
        name: str,
        transport: Callable[[str], str],
        *,
        async_transport: Callable[[str], Awaitable[str]] | None = None,
        limiter: TokenBucket | None = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.5,
        backoff_multiplier: float = 2.0,
        backoff: BackoffPolicy | None = None,
        injector: FaultInjector | None = None,
        sleep: Callable[[float], None] = time.sleep,
        async_sleep: Callable[[float], Awaitable[None]] | None = None,
    ) -> None:
        if not name:
            raise ValueError("a live endpoint needs a model name")
        if limiter is not None and limiter.virtual_clock:
            raise ValueError(
                "a live endpoint needs wall-clock pacing; build the limiter with "
                "TokenBucket(rate, burst, virtual_clock=False)"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_seconds < 0 or backoff_multiplier < 1.0:
            raise ValueError("backoff must be non-negative with multiplier >= 1")
        self._name = name
        self.transport = transport
        self.async_transport = async_transport
        self.limiter = limiter
        self.backoff = backoff or BackoffPolicy(
            initial_seconds=backoff_seconds,
            multiplier=backoff_multiplier,
            max_seconds=60.0,
            attempts=max_retries + 1,
        )
        self.max_retries = self.backoff.attempts - 1
        self.backoff_seconds = self.backoff.initial_seconds
        self.backoff_multiplier = self.backoff.multiplier
        self.injector = injector if injector is not None else null_injector()
        self._sleep = sleep
        self._async_sleep = async_sleep if async_sleep is not None else asyncio.sleep
        #: Observability: attempts sent to the wire, transient retries paid.
        #: Concurrent requests update them under ``_counts``.
        self.requests = 0
        self.retries = 0
        self._counts = threading.Lock()

    @property
    def name(self) -> str:
        return self._name

    def _backoff(self, retry_index: int) -> float:
        return self.backoff.delay(retry_index, self._name)

    def generate(self, problem: Problem, shots: int = 0, sample_index: int = 0) -> str:
        prompt = build_prompt(problem, shots=shots)
        for retry_index in range(self.max_retries + 1):
            if self.limiter is not None:
                self.limiter.acquire()
            with self._counts:
                self.requests += 1
            try:
                spec = self.injector.fire("endpoint.request", problem.problem_id)
                if spec is not None and spec.kind == "transient":
                    raise TransientEndpointError("injected transient endpoint fault")
                self.injector.sleep_if_delay(spec, problem.problem_id)
                return self.transport(prompt)
            except TransientEndpointError:
                if retry_index >= self.max_retries:
                    raise
                with self._counts:
                    self.retries += 1
                backoff = self._backoff(retry_index)
                if backoff > 0:
                    self._sleep(backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    async def generate_async(self, problem: Problem, shots: int = 0, sample_index: int = 0) -> str:
        prompt = build_prompt(problem, shots=shots)
        for retry_index in range(self.max_retries + 1):
            if self.limiter is not None:
                await self.limiter.acquire_async()
            with self._counts:
                self.requests += 1
            try:
                spec = self.injector.fire("endpoint.request", problem.problem_id)
                if spec is not None and spec.kind == "transient":
                    raise TransientEndpointError("injected transient endpoint fault")
                if spec is not None and spec.kind == "delay":
                    await self._async_sleep(self.injector.delay_seconds(spec, problem.problem_id))
                if self.async_transport is not None:
                    return await self.async_transport(prompt)
                # No native async transport: keep the event loop free by
                # running the blocking call on the default executor.
                return await asyncio.get_running_loop().run_in_executor(
                    None, self.transport, prompt
                )
            except TransientEndpointError:
                if retry_index >= self.max_retries:
                    raise
                with self._counts:
                    self.retries += 1
                backoff = self._backoff(retry_index)
                if backoff > 0:
                    await self._async_sleep(backoff)
        raise AssertionError("unreachable")  # pragma: no cover


#: HTTP statuses retrying can help with: rate limiting and server-side hiccups.
_TRANSIENT_STATUSES = frozenset({408, 429, 500, 502, 503, 504})


def http_transport(
    url: str,
    *,
    response_field: str = "response",
    prompt_field: str = "prompt",
    headers: dict[str, str] | None = None,
    timeout_seconds: float = 60.0,
) -> Callable[[str], str]:
    """A :class:`LiveEndpointModel` transport over stdlib ``urllib``.

    POSTs ``{prompt_field: prompt}`` as JSON to ``url`` and returns the
    ``response_field`` string of the JSON reply.  Timeouts, connection
    failures and 408/429/5xx statuses raise
    :class:`TransientEndpointError` (retried by the adapter); other HTTP
    errors and malformed payloads raise :class:`EndpointError`
    (propagated).  Kept deliberately minimal — provider-specific schemas
    wrap their SDK call in a plain function instead.
    """

    def transport(prompt: str) -> str:
        body = json.dumps({prompt_field: prompt}).encode("utf-8")
        request = urllib.request.Request(
            url,
            data=body,
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout_seconds) as reply:
                payload = json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code in _TRANSIENT_STATUSES:
                raise TransientEndpointError(f"endpoint returned HTTP {exc.code}") from exc
            raise EndpointError(f"endpoint returned HTTP {exc.code}") from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransientEndpointError(f"endpoint unreachable: {exc}") from exc
        try:
            return str(payload[response_field])
        except (TypeError, KeyError) as exc:
            raise EndpointError(
                f"endpoint reply is missing the {response_field!r} field"
            ) from exc

    return transport


class ReplayTransport:
    """A picklable transport replaying recorded ``prompt -> response`` pairs.

    The offline stand-in for a live endpoint: deterministic (the same
    prompt always yields the same recorded response), picklable (a plain
    mapping plus a float — unlike the :func:`http_transport` closure it
    ships to worker processes), and optionally *latency-bound* —
    ``latency_seconds`` is slept per call, so benchmarks can model an
    endpoint whose cost is wire time rather than CPU.  A prompt with no
    recording raises :class:`EndpointError` (a permanent failure — replay
    has nothing to retry toward).
    """

    def __init__(self, responses: dict[str, str], latency_seconds: float = 0.0) -> None:
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        self.responses = dict(responses)
        self.latency_seconds = latency_seconds

    def __call__(self, prompt: str) -> str:
        if self.latency_seconds > 0:
            time.sleep(self.latency_seconds)
        try:
            return self.responses[prompt]
        except KeyError:
            raise EndpointError(
                f"no recorded response for a {len(prompt)}-character prompt"
            ) from None


@dataclass(frozen=True)
class ModelSpec:
    """A picklable recipe for constructing a model in another process.

    The fleet's generation offload ships the *description* of a model —
    not the model — to its workers: a :class:`LiveEndpointModel` is built
    around an unpicklable transport closure and a shared rate limiter, so
    the spec carries the transport's configuration instead and each worker
    process rebuilds (and memoises — see
    :func:`repro.pipeline.stages.run_generation_task`) its own instance,
    exactly as :func:`~repro.scoring.compiled.warm_reference_store` warms
    the per-process reference store.

    Exactly one model source must be set:

    * ``model`` — an already-picklable model instance (the simulated
      registry models and :class:`RemoteEndpointModel` wrappers are pure
      data); :meth:`build` returns it as-is.
    * ``transport`` — a picklable ``(prompt) -> response`` callable (e.g.
      :class:`ReplayTransport`); wrapped in a :class:`LiveEndpointModel`.
    * ``url`` — endpoint config for :func:`http_transport` (built inside
      the worker, where the closure never needs to travel).

    ``rate_limit``/``burst`` describe the *global* pacing contract of the
    endpoint.  Inside a fleet worker the built model paces through the
    store-mediated :class:`~repro.evalcluster.fleet.DistributedTokenBucket`
    (every worker debits one server-side bucket named ``pacer_key``, so N
    processes together never exceed the rate); anywhere else — the parent
    process, a thread pool — :meth:`build` falls back to a local
    wall-clock :class:`~repro.utils.ratelimit.TokenBucket` with the same
    parameters.
    """

    name: str
    model: Any = None
    transport: Callable[[str], str] | None = None
    url: str | None = None
    response_field: str = "response"
    prompt_field: str = "prompt"
    headers: tuple[tuple[str, str], ...] = ()
    timeout_seconds: float = 60.0
    rate_limit: float | None = None
    burst: int = 1
    max_retries: int = 2
    backoff_seconds: float = 0.5
    backoff_multiplier: float = 2.0
    pacer_key: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a model spec needs a model name")
        sources = sum(
            source is not None for source in (self.model, self.transport, self.url)
        )
        if sources != 1:
            raise ValueError(
                "pass exactly one model source: model (picklable instance), "
                "transport (picklable callable), or url (http endpoint)"
            )
        if self.model is not None and getattr(self.model, "name", self.name) != self.name:
            raise ValueError(
                f"spec name {self.name!r} does not match model name {self.model.name!r}"
            )
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")

    @classmethod
    def of(cls, model: Model, **overrides: Any) -> "ModelSpec":
        """Spec a picklable model instance under its own name."""

        return cls(name=model.name, model=model, **overrides)

    @property
    def limiter_key(self) -> str:
        """The distributed bucket this spec's builds share (default: the name)."""

        return self.pacer_key or self.name

    def build(self, limiter: Any = None) -> Model:
        """Construct the model this spec describes.

        ``limiter`` (anything with the :class:`~repro.utils.ratelimit.TokenBucket`
        ``acquire`` surface and ``virtual_clock=False``) overrides the
        pacing backend; with ``rate_limit`` set and no override, a local
        wall-clock bucket is built — the single-process semantics the
        parent path has always had.
        """

        if self.model is not None:
            return self.model
        transport = self.transport
        if transport is None:
            assert self.url is not None
            transport = http_transport(
                self.url,
                response_field=self.response_field,
                prompt_field=self.prompt_field,
                headers=dict(self.headers) or None,
                timeout_seconds=self.timeout_seconds,
            )
        if limiter is None and self.rate_limit is not None:
            limiter = TokenBucket(self.rate_limit, burst=self.burst, virtual_clock=False)
        return LiveEndpointModel(
            self.name,
            transport,
            limiter=limiter,
            max_retries=self.max_retries,
            backoff_seconds=self.backoff_seconds,
            backoff_multiplier=self.backoff_multiplier,
        )
