"""The live-endpoint adapter: retries, pacing, protocols, HTTP transport."""

from __future__ import annotations

import asyncio
import io
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.llm.interface import AsyncModel, GenerationRequest, Model, QueryModule
from repro.llm.remote import (
    EndpointError,
    LiveEndpointModel,
    TransientEndpointError,
    http_transport,
)
from repro.utils.ratelimit import TokenBucket


@pytest.fixture(scope="module")
def problem(small_dataset):
    return next(iter(small_dataset))


def make_flaky(answer: str, failures: int):
    """A transport failing transiently ``failures`` times, then answering."""

    state = {"calls": 0}

    def transport(prompt: str) -> str:
        state["calls"] += 1
        if state["calls"] <= failures:
            raise TransientEndpointError("simulated 503")
        return answer

    return transport, state


def test_implements_both_model_protocols():
    model = LiveEndpointModel("live", lambda prompt: "ok")
    assert isinstance(model, Model)
    assert isinstance(model, AsyncModel)


def test_generate_sends_the_built_prompt(problem):
    seen = []
    model = LiveEndpointModel("live", lambda prompt: seen.append(prompt) or "ok")
    assert model.generate(problem, shots=0) == "ok"
    assert seen == [GenerationRequest(problem=problem).prompt()]


def test_retries_transient_failures_with_backoff(problem):
    transport, state = make_flaky("answer", failures=2)
    sleeps = []
    model = LiveEndpointModel(
        "live", transport, max_retries=2, backoff_seconds=0.5, sleep=sleeps.append
    )
    assert model.generate(problem) == "answer"
    assert state["calls"] == 3
    assert model.requests == 3 and model.retries == 2
    assert sleeps == [0.5, 1.0]  # deterministic exponential backoff


def test_exhausted_retries_propagate(problem):
    transport, state = make_flaky("never", failures=10)
    model = LiveEndpointModel(
        "live", transport, max_retries=1, backoff_seconds=0.0, sleep=lambda s: None
    )
    with pytest.raises(TransientEndpointError):
        model.generate(problem)
    assert state["calls"] == 2  # max_retries + 1 attempts


def test_counters_are_exact_under_concurrent_requests(problem):
    """Every thread's second attempt succeeds, so each request costs two
    wire attempts and one retry; the shared counters add up exactly."""

    threads, calls = 8, 200
    attempts = threading.local()

    def transport(prompt: str) -> str:
        attempts.n = getattr(attempts, "n", 0) + 1
        if attempts.n % 2:
            raise TransientEndpointError("try again")
        return "ok"

    model = LiveEndpointModel("live", transport, max_retries=1, backoff_seconds=0.0)

    def worker() -> None:
        for _ in range(calls):
            assert model.generate(problem) == "ok"

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to lose an update
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in pool)
    assert model.requests == 2 * threads * calls
    assert model.retries == threads * calls


def test_permanent_errors_are_not_retried(problem):
    calls = []

    def transport(prompt: str) -> str:
        calls.append(1)
        raise EndpointError("HTTP 400")

    model = LiveEndpointModel("live", transport, max_retries=3, sleep=lambda s: None)
    with pytest.raises(EndpointError):
        model.generate(problem)
    assert len(calls) == 1


def test_virtual_clock_limiter_rejected():
    with pytest.raises(ValueError, match="wall-clock"):
        LiveEndpointModel("live", lambda p: "ok", limiter=TokenBucket(10.0))


def test_every_attempt_takes_a_token(problem):
    transport, _state = make_flaky("answer", failures=2)
    limiter = TokenBucket(10_000.0, burst=8, virtual_clock=False)
    model = LiveEndpointModel(
        "live", transport, limiter=limiter, max_retries=2,
        backoff_seconds=0.0, sleep=lambda s: None,
    )
    model.generate(problem)
    assert limiter.acquired == 3  # retried attempts re-queue, never cut the line


def test_async_path_retries_and_matches_sync(problem):
    transport, _state = make_flaky("answer", failures=1)

    async def run():
        async_sleeps = []

        async def recorder(seconds):
            async_sleeps.append(seconds)

        model = LiveEndpointModel(
            "live", transport, max_retries=1, backoff_seconds=0.25, async_sleep=recorder
        )
        response = await model.generate_async(problem)
        return response, async_sleeps, model.retries

    response, async_sleeps, retries = asyncio.run(run())
    assert response == "answer"
    assert async_sleeps == [0.25] and retries == 1


def test_native_async_transport_is_preferred(problem):
    async def async_transport(prompt: str) -> str:
        return "from-async"

    model = LiveEndpointModel("live", lambda p: "from-sync", async_transport=async_transport)
    assert asyncio.run(model.generate_async(problem)) == "from-async"
    assert model.generate(problem) == "from-sync"


def test_query_module_routes_live_endpoint_async(problem):
    """The async query path overlaps a LiveEndpointModel's requests and
    captures per-request transport failures into failed results."""

    def transport(prompt: str) -> str:
        raise TransientEndpointError("down")

    model = LiveEndpointModel("live", transport, max_retries=0)
    query = QueryModule(model)
    requests = [GenerationRequest(problem=problem)]
    results = asyncio.run(query.query_batch_async(requests, max_concurrency=2))
    assert not results[0].ok
    assert "TransientEndpointError" in results[0].error
    query.close()


# ---------------------------------------------------------------------------
# http_transport (urllib is monkeypatched; no network is touched)
# ---------------------------------------------------------------------------


class _Reply(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


def test_http_transport_posts_json_and_parses_reply(monkeypatch):
    captured = {}

    def fake_urlopen(request, timeout=None):
        captured["url"] = request.full_url
        captured["body"] = json.loads(request.data.decode("utf-8"))
        captured["timeout"] = timeout
        return _Reply(json.dumps({"response": "the yaml"}).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    transport = http_transport("http://endpoint/v1/generate", timeout_seconds=5.0)
    assert transport("write me yaml") == "the yaml"
    assert captured["url"] == "http://endpoint/v1/generate"
    assert captured["body"] == {"prompt": "write me yaml"}
    assert captured["timeout"] == 5.0


@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_http_transport_transient_statuses(monkeypatch, status):
    def fake_urlopen(request, timeout=None):
        raise urllib.error.HTTPError(request.full_url, status, "err", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    with pytest.raises(TransientEndpointError):
        http_transport("http://endpoint")("prompt")


def test_http_transport_permanent_status_and_bad_payload(monkeypatch):
    def bad_request(request, timeout=None):
        raise urllib.error.HTTPError(request.full_url, 400, "err", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", bad_request)
    with pytest.raises(EndpointError) as excinfo:
        http_transport("http://endpoint")("prompt")
    assert not isinstance(excinfo.value, TransientEndpointError)

    monkeypatch.setattr(
        urllib.request, "urlopen",
        lambda request, timeout=None: _Reply(b'{"unexpected": 1}'),
    )
    with pytest.raises(EndpointError, match="missing"):
        http_transport("http://endpoint")("prompt")


def test_http_transport_unreachable_is_transient(monkeypatch):
    def fake_urlopen(request, timeout=None):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    with pytest.raises(TransientEndpointError, match="unreachable"):
        http_transport("http://endpoint")("prompt")
