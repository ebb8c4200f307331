"""A replay endpoint that travels to fleet workers as a file name.

:class:`~repro.llm.remote.ReplayTransport` holds its whole
``prompt -> response`` map, so a :class:`~repro.llm.remote.ModelSpec`
built around it pickles that map into every generation task: megabytes
per run that a ``url=`` spec for a live endpoint never sends.  A
:class:`RecordedEndpoint` carries only the path of the prepared
recordings and the latency.  Each process loads the file on its first
call and replays it through a ``ReplayTransport``, so the wire carries
what it would carry for a real endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.llm.remote import ReplayTransport

#: (path, latency) -> this process's transport.
_LOADED: dict[tuple[str, float], ReplayTransport] = {}


@dataclass(frozen=True)
class RecordedEndpoint:
    """A picklable ``(prompt) -> response`` callable over a recordings file."""

    path: str
    latency_seconds: float = 0.0

    def __call__(self, prompt: str) -> str:
        key = (self.path, self.latency_seconds)
        transport = _LOADED.get(key)
        if transport is None:
            with open(self.path, encoding="utf-8") as handle:
                transport = ReplayTransport(json.load(handle), latency_seconds=self.latency_seconds)
            _LOADED[key] = transport
        return transport(prompt)
