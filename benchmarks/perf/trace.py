"""An in-memory span recorder and the wrappers that feed it.

The benchmark's per-layer numbers come from spans recorded *around* the
program's public functions and methods, from the benchmark's own files:
:func:`patch_function` rebinds every module global that refers to a
function, :func:`patch_method` rebinds a class attribute.  Nothing in the
program under test changes, and an untraced repeat installs nothing.

Spans go to a process-local list.  Each thread keeps its own stack of open
spans, so a span knows its parent and its *self time* (its duration minus
the time its child spans cover) when it closes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    thread: str
    start_ns: int
    duration_ns: int
    self_ns: int
    depth: int


class Tracer:
    """Spans and counters of one process, recorded only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        # A forked process-pool worker inherits the wrappers; it records
        # nothing, and must not inherit a lock another thread held.
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.current_thread().name
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        opaque: bool = False,
        on_call: Callable[["Tracer", tuple], None] | None = None,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call while enabled.

        An ``opaque`` span owns everything beneath it: wrapped calls made
        inside it record nothing, so its self time is its whole duration
        (reference compilation parses YAML and tokenizes text, and that
        work belongs to compilation, not to the parse and text layers).
        ``on_call`` sees the positional arguments and ``on_result`` the
        return value, for counters measured where the work happens.  An
        exception is counted as ``<name>.errors`` and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1][1]:
                return fn(*args, **kwargs)  # inside an opaque span
            if on_call is not None:
                on_call(self, args)
            frame = [0, opaque]  # nanoseconds covered by children, opacity
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{name}.errors")
                raise
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.spans.append(
                    Span(name, self._local.thread, start, duration, duration - frame[0], len(stack))
                )
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- views ---------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""

        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
            self_ns[span.name] += span.self_ns
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}

    def root_seconds(self, thread: str, names: set[str] | None = None) -> float:
        """Wall time ``thread`` spent in outermost spans (named ``names``, if given)."""

        return sum(
            span.duration_ns
            for span in self.spans
            if span.depth == 0 and span.thread == thread and (names is None or span.name in names)
        ) / 1e9

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""

        pid = os.getpid()
        threads = sorted({span.thread for span in self.spans})
        tids = {thread: index + 1 for index, thread in enumerate(threads)}
        origin = min((span.start_ns for span in self.spans), default=0)
        events: list[dict[str, Any]] = [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tids[thread], "args": {"name": thread}}
            for thread in threads
        ]
        events.extend(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".")[0],
                "pid": pid,
                "tid": tids[span.thread],
                "ts": (span.start_ns - origin) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "args": {"self_us": span.self_ns / 1000.0},
            }
            for span in sorted(self.spans, key=lambda span: span.start_ns)
        )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def patch_function(
    tracer: Tracer,
    name: str,
    module_name: str,
    attribute: str,
    *,
    only_in: tuple[str, ...] | None = None,
    **hooks: Any,
) -> None:
    """Wrap the function ``module_name.attribute`` wherever it is bound.

    A ``from x import f`` copies the function into the importing module's
    globals, so every loaded ``repro`` module that holds the same object
    is rebound — or only the modules named in ``only_in``.
    """

    original = getattr(importlib.import_module(module_name), attribute)
    wrapper = tracer.wrap(name, original, **hooks)
    for loaded_name, module in list(sys.modules.items()):
        if module is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
            continue
        if only_in is not None and loaded_name not in only_in:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def patch_method(
    tracer: Tracer,
    name: str,
    cls: type,
    attribute: str,
    *,
    adapt: Callable[[Callable[..., Any]], Callable[..., Any]] | None = None,
    **hooks: Any,
) -> None:
    """Wrap ``cls.attribute`` (a plain function attribute) for every instance.

    ``adapt`` rewrites the original before it is wrapped — e.g. draining a
    generator method so its span covers the work rather than the call.
    """

    original = vars(cls)[attribute]
    if adapt is not None:
        original = functools.wraps(original)(adapt(original))
    setattr(cls, attribute, tracer.wrap(name, original, **hooks))
