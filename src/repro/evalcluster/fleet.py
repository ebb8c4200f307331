"""Distributed evaluation fleet: the cluster protocol over a real wire.

Everything the in-process cluster runtime does — job queue, atomic
claims, results hash, leases with re-enqueue-once — already speaks
through the :class:`~repro.evalcluster.kvstore.RedisLikeStore` command
surface.  This module puts that surface on a socket so the *same*
:class:`~repro.evalcluster.master.Master` drives real out-of-process
workers:

* :class:`StoreServer` — a threaded TCP server wrapping one locked
  ``RedisLikeStore``.  Commands travel as length-prefixed pickle frames
  (``send_frame``/``recv_frame``); blocking extensions ``blpop``,
  ``claim`` and ``claim_many`` park the connection on a condition
  variable until a push arrives.  ``claim``/``claim_many`` pop pending
  job ids *and* register the claims in one locked step, so a worker
  that dies between pop and registration cannot orphan a job invisibly;
  ``report_many`` lands a whole batch of results in one frame, and
  ``rate_acquire`` debits server-side :class:`TokenBucket`\\ s so the
  whole fleet shares one token balance per endpoint (see
  :class:`DistributedTokenBucket`).
* :class:`RemoteStore` — the client half: the full store surface as
  methods over one socket, with reconnect-and-retry on connection loss
  (every command is either idempotent or covered by lease recovery).
* :class:`FleetWorker` / ``python -m repro.evalcluster.fleet worker``
  — the worker loop: claim a job id, fetch its pickled payload, run it,
  write the result first-write-wins (``hsetnx``), push a completion
  event.  A heartbeat thread on its *own* connection reports liveness
  plus the job currently executing; on startup the worker warms its
  per-process :class:`~repro.scoring.compiled.ReferenceStore` from the
  problems the executor published.
* :class:`FleetExecutor` — the :class:`~repro.pipeline.executors.Executor`
  backend.  It either self-hosts (in-process server thread + ``N``
  spawned worker subprocesses) or attaches to an external store.  Its
  ``submit`` stores payloads and queues jobs, and the returned
  :class:`FleetFuture`'s ``result()`` runs the coordinator loop: observe
  claims and heartbeats (stamping leases on the *master's* monotonic
  clock — worker clocks are never compared), reap expired leases through
  :meth:`Master.reap_expired`, and collect results in task order.
  ``map`` is ``submit(...).result()``.

Timing flows back with the work: per-record scoring seconds are measured
inside the worker (``run_timed_score_task`` rides along in the pickled
payload), so the master-side pipeline feeds its
:class:`~repro.evalcluster.calibration.CalibrationStore` with true
cross-machine durations and the steal policy sees remote skew live.
Score-cache hits never ship: the score stage resolves them in the parent
process and the fleet — ``requires_picklable_tasks`` like the process
pool — only ever sees miss envelopes.

Chaos hardening (all optional, all off by default):

* **Durability** — ``StoreServer(journal=path)`` backs the store with a
  :class:`~repro.evalcluster.kvstore.JournaledStore` write-ahead journal;
  the store process can be killed and a fresh server on the same journal
  replays to the exact pre-crash state while clients reconnect.
* **Bounded reconnects** — :class:`RemoteStore` retries lost connections
  on a capped-exponential :class:`~repro.utils.backoff.BackoffPolicy`
  with deterministic jitter; an exhausted budget raises the typed
  :class:`FleetUnavailableError` instead of spinning forever.
* **Fault injection** — every component takes a seeded
  :class:`~repro.utils.faults.FaultInjector` (sites ``worker.claim``,
  ``worker.execute``, ``worker.generate``, ``worker.heartbeat``,
  ``remote.call``, ``server.command``, ``coordinator.sync``) so kills,
  drops, corrupt
  frames, freezes, delays and store restarts are scripted, reproducible
  test inputs; fired faults land in the coordinator's JSONL event log.
* **Graceful degradation** — a job the fleet cannot finish (lease expired
  twice, or quarantined by the strike counter) comes back as one
  :class:`~repro.pipeline.executors.DegradedResult` per task instead of
  an exception, so a run always terminates with a result per slot.

The protocol trusts its peers (pickle over TCP): bind to localhost or a
private network you control, exactly like an unauthenticated Redis.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.evalcluster.calibration import Ewma
from repro.evalcluster.kvstore import JournaledStore, RedisLikeStore
from repro.evalcluster.master import EvaluationJob, Master, MasterStats
from repro.pipeline.executors import DegradedResult
from repro.utils.backoff import BackoffPolicy
from repro.utils.faults import FaultInjector, FaultPlan, null_injector
from repro.utils.jsonl import JsonlLog
from repro.utils.ratelimit import TokenBucket

__all__ = [
    "FrameError",
    "StoreCommandError",
    "FleetUnavailableError",
    "send_frame",
    "recv_frame",
    "StoreServer",
    "RemoteStore",
    "DistributedTokenBucket",
    "FleetWorker",
    "FleetExecutor",
    "FleetFuture",
    "fleet_pacer",
    "run_worker",
    "worker_injector",
    "main",
]

T = TypeVar("T")
R = TypeVar("R")

#: Hash of in-flight claims: job id -> (worker id, claim sequence number).
#: Shared with the master, which clears a reaped job's row before
#: re-enqueueing it.
CLAIMS_KEY = Master.CLAIMS_KEY
#: Completion events the coordinator blocks on (list of finished job ids).
DONE_KEY = "jobs:done"
#: Heartbeat hash: worker id -> (sequence number, job id being executed).
HEARTBEATS_KEY = "workers:heartbeat"
#: Workers exit their claim loop when this key becomes truthy.
STOP_KEY = "fleet:stop"
#: Pickled problem tuple workers warm their reference store from.
WARMUP_KEY = "fleet:warmup"
#: Worker-side fault/watchdog events queued for the coordinator's event log.
FAULTS_KEY = "fleet:faults"

#: Job payloads are stored per job under this prefix as pickled bytes the
#: server never unpickles — only the claiming worker does.
_PAYLOAD_PREFIX = "jobs:payload:"
#: Per-job execution-attempt counters backing the quarantine strike rule.
_STRIKES_PREFIX = "jobs:strikes:"

_HEADER = struct.Struct(">I")

#: Upper bound on one frame; anything larger is protocol corruption, not
#: data (a full-corpus payload is tens of kilobytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(ConnectionError):
    """The wire produced a torn or malformed frame."""


class StoreCommandError(RuntimeError):
    """The server executed the command and it raised."""


class FleetUnavailableError(ConnectionError):
    """A :class:`RemoteStore` spent its whole reconnect budget.

    Subclasses :class:`ConnectionError` so existing handlers keep
    working; the distinct type lets callers tell "the store is gone"
    apart from a transient hiccup the backoff already absorbed.
    """


#: Sentinel :func:`recv_frame` returns on a clean end-of-stream (the peer
#: closed exactly on a frame boundary) — distinct from a frame carrying None.
_EOF = object()


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Write one length-prefixed pickle frame."""

    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, size: int, what: str = "frame") -> bytes | None:
    """Read exactly ``size`` bytes; None on clean EOF *before* any byte,
    :class:`FrameError` on EOF after some bytes (a torn frame).

    ``what`` names the fragment in the error — a peer that dies two bytes
    into the four-byte length prefix produces a diagnosable
    ``mid-length-prefix (2/4 bytes)``, never a bare :class:`struct.error`
    from unpacking a short header downstream.
    """

    buffer = bytearray()
    while len(buffer) < size:
        chunk = sock.recv(size - len(buffer))
        if not chunk:
            if not buffer:
                return None
            raise FrameError(f"connection closed mid-{what} ({len(buffer)}/{size} bytes)")
        buffer.extend(chunk)
    return bytes(buffer)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame; the module-private EOF sentinel on clean close.

    A peer that disappears half-way through a frame — inside the length
    prefix, or a short payload — raises :class:`FrameError` with how many
    bytes made it: the fragment is torn, never delivered as data.
    """

    header = _recv_exact(sock, _HEADER.size, what="length-prefix")
    if header is None:
        return _EOF
    try:
        (length,) = _HEADER.unpack(header)
    except struct.error as exc:  # pragma: no cover - _recv_exact guarantees 4 bytes
        raise FrameError(f"unreadable length prefix: {exc}") from exc
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame header announces {length} bytes (cap {MAX_FRAME_BYTES})")
    payload = _recv_exact(sock, length, what="payload")
    if payload is None:
        raise FrameError("connection closed between frame header and payload")
    return pickle.loads(payload)


class StoreServer:
    """Serve one :class:`RedisLikeStore` to many connections over TCP.

    Every connection gets its own handler thread; commands execute under
    one lock, so multi-step commands (``claim``) are atomic exactly as a
    single-threaded Redis would make them.  ``blpop`` and ``claim`` park
    their connection on a condition variable notified by every ``rpush``,
    so blocked workers wake the instant work arrives instead of polling.

    A torn frame (a worker killed mid-write, a reset) drops only that
    connection; the store and every other connection keep serving.

    ``journal`` (a path) backs the store with a
    :class:`~repro.evalcluster.kvstore.JournaledStore`: every effective
    mutation is fsynced before the client sees its reply, so the server
    process can be killed and a new one built on the same journal replays
    to the exact acknowledged state.  :meth:`crash` simulates exactly
    that kill in-process (listener and every live connection closed
    abruptly, no goodbye) for chaos tests and the coordinator's
    ``restart`` fault.

    ``injector`` scripts server-side faults at the ``server.command``
    site (detail = the command name): ``drop`` closes the connection
    without replying, ``delay`` stalls the reply.
    """

    #: Plain store commands forwarded verbatim under the lock.
    _COMMANDS = frozenset(
        {
            "set",
            "get",
            "incr",
            "delete",
            "hset",
            "hget",
            "hgetall",
            "hlen",
            "hsetnx",
            "hdel",
            "rpush",
            "lpop",
            "llen",
            "lrange",
            "keys",
        }
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: RedisLikeStore | JournaledStore | None = None,
        journal: str | os.PathLike[str] | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if store is not None and journal is not None:
            raise ValueError("pass store or journal, not both")
        if journal is not None:
            store = JournaledStore(journal)
        self.store = store or RedisLikeStore()
        self.injector = injector if injector is not None else null_injector()
        self._lock = threading.RLock()
        self._pushed = threading.Condition(self._lock)
        # Server-side token buckets backing the fleet's distributed rate
        # limiting (``rate_acquire``).  Deliberately *not* part of the
        # journaled store: pacing is an ephemeral wall-clock contract, and
        # replaying grants after a restart would double-charge the window.
        self._limiters: dict[str, TokenBucket] = {}
        self._claimants: set[str] = set()
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._closing = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def claimants(self) -> frozenset[str]:
        """Ids of the workers that have asked this server for a job.

        A worker asks only once it is warm and in its claim loop, so a
        caller can hold work back until every worker it spawned is ready.
        """

        with self._lock:
            return frozenset(self._claimants)

    def start(self) -> "StoreServer":
        """Begin accepting connections on a background thread."""

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-store-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                connection, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                self._connections.add(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="fleet-store-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            with connection:
                while not self._closing.is_set():
                    try:
                        frame = recv_frame(connection)
                    except (FrameError, OSError):
                        return  # torn frame or reset: this connection only
                    if frame is _EOF:
                        return
                    command = frame[0] if isinstance(frame, tuple) and frame else ""
                    spec = self.injector.fire("server.command", str(command))
                    if spec is not None and spec.kind == "drop":
                        return  # hang up without a reply; the client retries
                    self.injector.sleep_if_delay(spec, command)
                    try:
                        response: tuple[str, Any] = ("ok", self._execute(frame))
                    except Exception as exc:  # noqa: BLE001 - relayed to the client
                        response = ("err", f"{type(exc).__name__}: {exc}")
                    try:
                        send_frame(connection, response)
                    except OSError:
                        return
        finally:
            with self._conn_lock:
                self._connections.discard(connection)

    def _execute(self, frame: Any) -> Any:
        if not isinstance(frame, tuple) or not frame or not isinstance(frame[0], str):
            raise ValueError("malformed command frame")
        command, *args = frame
        if command == "ping":
            return "pong"
        if command == "blpop":
            return self._blpop(*args)
        if command == "claim":
            return self._claim(*args)
        if command == "claim_many":
            return self._claim_many(*args)
        if command == "report_many":
            return self._report_many(*args)
        if command == "rate_acquire":
            return self._rate_acquire(*args)
        if command not in self._COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        with self._lock:
            result = getattr(self.store, command)(*args)
            if command == "rpush":
                self._pushed.notify_all()
            return result

    def _blpop(self, key: str, timeout: float) -> Any:
        """Blocking left-pop: wait up to ``timeout`` seconds for an item."""

        deadline = time.monotonic() + timeout
        with self._pushed:
            while True:
                value = self.store.lpop(key)
                if value is not None:
                    return value
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closing.is_set():
                    return None
                self._pushed.wait(remaining)

    def _claim(self, queue_key: str, claims_key: str, worker_id: str, timeout: float) -> Any:
        """Atomically pop the next job id *and* register who claimed it.

        Pop and registration happen under one lock: there is no instant
        at which a job has left the queue without its claim being
        visible, so a worker killed right after claiming is always
        discoverable by the lease reaper.  The claim value carries a
        server-wide sequence number so a re-claim of a re-enqueued job is
        distinguishable from the stale original.
        """

        deadline = time.monotonic() + timeout
        with self._pushed:
            self._claimants.add(worker_id)
            while True:
                job_id = self.store.lpop(queue_key)
                if job_id is not None:
                    sequence = self.store.incr("fleet:claim-seq")
                    self.store.hset(claims_key, job_id, (worker_id, sequence))
                    return job_id
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closing.is_set():
                    return None
                self._pushed.wait(remaining)

    def _claim_many(
        self, queue_key: str, claims_key: str, worker_id: str, limit: int, timeout: float
    ) -> list[str]:
        """Atomically pop up to ``limit`` job ids, registering every claim.

        The batched sibling of :meth:`_claim`: all pops and registrations
        happen under one lock acquisition and travel back in one frame, so
        a worker whose jobs now carry whole generation chains pays the
        claim round-trip once per batch instead of once per job.  Each
        claim still gets its own fresh sequence number — re-claims of
        re-enqueued jobs stay distinguishable.  Blocks up to ``timeout``
        for the *first* job; never waits to fill the batch (a partial
        batch now beats a full batch later).
        """

        limit = max(1, int(limit))
        deadline = time.monotonic() + timeout
        with self._pushed:
            self._claimants.add(worker_id)
            while True:
                job_ids: list[str] = []
                while len(job_ids) < limit:
                    job_id = self.store.lpop(queue_key)
                    if job_id is None:
                        break
                    sequence = self.store.incr("fleet:claim-seq")
                    self.store.hset(claims_key, job_id, (worker_id, sequence))
                    job_ids.append(job_id)
                if job_ids:
                    return job_ids
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closing.is_set():
                    return []
                self._pushed.wait(remaining)

    def _report_many(
        self, results_key: str, done_key: str, reports: Sequence[tuple[str, dict[str, Any]]]
    ) -> int:
        """Write a batch of result rows plus their completion events.

        Rows land first-write-wins (``hsetnx``, same as single reports), a
        completion event is pushed per job, and parked waiters are woken
        once for the whole batch.  Returns how many rows were actually
        written (a retried report whose first attempt landed counts zero).
        """

        written = 0
        with self._pushed:
            for job_id, row in reports:
                if self.store.hsetnx(results_key, job_id, row):
                    written += 1
                self.store.rpush(done_key, job_id)
            self._pushed.notify_all()
        return written

    def _rate_acquire(self, key: str, rate: float, burst: int) -> float:
        """Debit one token from the named server-side bucket.

        The grant is instant — :meth:`TokenBucket.try_acquire` borrows the
        token and returns how long the *caller* must sleep before acting,
        so a parked grant can never stall other connections.  The first
        acquirer's ``(rate, burst)`` creates the bucket; later parameters
        are ignored (first-config-wins — N workers sharing one spec cannot
        reset each other's token balance).
        """

        with self._lock:
            bucket = self._limiters.get(key)
            if bucket is None:
                bucket = TokenBucket(float(rate), burst=max(1, int(burst)), virtual_clock=False)
                self._limiters[key] = bucket
            return bucket.try_acquire()

    def close(self) -> None:
        """Stop accepting and wake every parked waiter."""

        self._closing.set()
        try:
            # shutdown() before close(): a thread blocked inside accept(2)
            # holds a kernel reference to the listening socket, so close()
            # alone would leave it in LISTEN (and the port unbindable)
            # until that thread woke on its own.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._pushed:
            self._pushed.notify_all()

    def crash(self) -> None:
        """Die as a SIGKILL would: listener and every connection closed
        abruptly, parked waiters abandoned, no replies in flight honoured.

        The in-memory store object survives (we are still one process),
        but nothing references it after a journal-backed restart — the
        replacement server replays the journal, which holds exactly the
        mutations clients saw acknowledged.
        """

        self.close()
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                # Abortive close (RST, no FIN handshake): exactly what the
                # peer of a SIGKILLed process observes — and it frees the
                # port immediately (no FIN_WAIT socket lingering), so a
                # replacement server can bind the same address at once.
                connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            except OSError:
                pass
            try:
                # Wake the handler thread blocked inside recv(2); without
                # this its in-flight syscall keeps the connection alive in
                # the kernel past close().
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass

    def __enter__(self) -> "StoreServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteStore:
    """The store surface over one socket, with reconnect-and-resume.

    Implements every :class:`RedisLikeStore` method (so a
    :class:`~repro.evalcluster.master.Master` runs against it unmodified)
    plus the two blocking commands.  A lost connection is re-dialled with
    backoff and the command retried: every command here is either
    idempotent (``set``/``hset``/``hgetall``/…), first-write-wins by
    construction (``hsetnx``), or — for ``claim`` — covered by lease
    recovery: a claim that succeeded server-side but whose reply was lost
    is never heartbeat-renewed (the worker executes a different job), so
    its lease expires and the job is re-enqueued once.

    Reconnects follow a capped-exponential
    :class:`~repro.utils.backoff.BackoffPolicy` (default: start at
    ``reconnect_delay``, double per retry, cap at 2 s, deterministic 10%
    jitter, ``reconnect_attempts`` retries); a spent budget raises
    :class:`FleetUnavailableError` instead of retrying forever.  Pass
    ``backoff`` to override the whole schedule.

    ``injector`` scripts client-side wire faults at the ``remote.call``
    site (detail = the command name): ``drop`` abandons the connection
    before sending, ``corrupt`` writes a malformed frame header (the
    server tears that one connection down, nothing else), ``delay``
    stalls the send.  All three then travel the ordinary
    reconnect-and-retry path — injected faults exercise exactly the code
    real ones do.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 30.0,
        reconnect_attempts: int = 20,
        reconnect_delay: float = 0.2,
        backoff: BackoffPolicy | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.timeout = timeout
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.backoff = backoff or BackoffPolicy(
            initial_seconds=reconnect_delay,
            multiplier=2.0,
            max_seconds=max(2.0, reconnect_delay),
            attempts=reconnect_attempts + 1,
            jitter=0.1,
        )
        self.injector = injector if injector is not None else null_injector()
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None

    # -- wire ---------------------------------------------------------------
    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def call(self, command: str, *args: Any, wait: float = 0.0) -> Any:
        """Execute one command, reconnecting on connection loss.

        ``wait`` is how long the *server* may legitimately sit on the
        command (blocking pops); it widens the socket timeout so patience
        is not mistaken for a dead peer.
        """

        last_error: Exception | None = None
        with self._lock:
            for attempt in range(self.backoff.attempts):
                if attempt:
                    time.sleep(self.backoff.delay(attempt - 1, self.address))
                if self._sock is None:
                    try:
                        self._sock = self._dial()
                    except OSError as exc:
                        last_error = exc
                        continue
                spec = self.injector.fire("remote.call", command)
                if spec is not None and spec.kind == "drop":
                    self._drop()
                    last_error = ConnectionError("injected fault: connection dropped")
                    continue
                if spec is not None and spec.kind == "corrupt":
                    # A malformed header: the length announces more than the
                    # protocol cap, so the server raises FrameError and tears
                    # down exactly this connection.
                    try:
                        self._sock.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1))
                    except OSError:
                        pass
                    self._drop()
                    last_error = ConnectionError("injected fault: corrupt frame sent")
                    continue
                self.injector.sleep_if_delay(spec, command)
                try:
                    self._sock.settimeout(self.timeout + wait)
                    send_frame(self._sock, (command, *args))
                    reply = recv_frame(self._sock)
                except (OSError, FrameError, EOFError, pickle.UnpicklingError) as exc:
                    last_error = exc
                    self._drop()
                    continue
                if reply is _EOF:
                    last_error = ConnectionError("server closed the connection")
                    self._drop()
                    continue
                status, payload = reply
                if status == "err":
                    raise StoreCommandError(payload)
                return payload
        raise FleetUnavailableError(
            f"lost connection to fleet store at {self.address[0]}:{self.address[1]} "
            f"after {self.backoff.attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        with self._lock:
            self._drop()

    # -- the RedisLikeStore surface -----------------------------------------
    def set(self, key: str, value: Any) -> None:
        self.call("set", key, value)

    def get(self, key: str, default: Any = None) -> Any:
        value = self.call("get", key)
        return default if value is None else value

    def incr(self, key: str, amount: int = 1) -> int:
        return self.call("incr", key, amount)

    def delete(self, key: str) -> None:
        self.call("delete", key)

    def hset(self, key: str, field: str, value: Any) -> None:
        self.call("hset", key, field, value)

    def hget(self, key: str, field: str, default: Any = None) -> Any:
        value = self.call("hget", key, field)
        return default if value is None else value

    def hgetall(self, key: str) -> dict[str, Any]:
        return self.call("hgetall", key)

    def hlen(self, key: str) -> int:
        return self.call("hlen", key)

    def hsetnx(self, key: str, field: str, value: Any) -> bool:
        return self.call("hsetnx", key, field, value)

    def hdel(self, key: str, field: str) -> bool:
        return self.call("hdel", key, field)

    def rpush(self, key: str, *values: Any) -> int:
        return self.call("rpush", key, *values)

    def lpop(self, key: str) -> Any:
        return self.call("lpop", key)

    def llen(self, key: str) -> int:
        return self.call("llen", key)

    def lrange(self, key: str, start: int = 0, stop: int = -1) -> list[Any]:
        return self.call("lrange", key, start, stop)

    def keys(self) -> list[str]:
        return self.call("keys")

    # -- blocking extensions -------------------------------------------------
    def ping(self) -> str:
        return self.call("ping")

    def blpop(self, key: str, timeout: float) -> Any:
        return self.call("blpop", key, timeout, wait=timeout)

    def claim(self, queue_key: str, claims_key: str, worker_id: str, timeout: float) -> Any:
        return self.call("claim", queue_key, claims_key, worker_id, timeout, wait=timeout)

    def claim_many(
        self, queue_key: str, claims_key: str, worker_id: str, limit: int, timeout: float
    ) -> list[str]:
        """Atomically claim up to ``limit`` jobs in one round-trip."""

        return self.call(
            "claim_many", queue_key, claims_key, worker_id, limit, timeout, wait=timeout
        )

    def report_many(
        self, results_key: str, done_key: str, reports: Sequence[tuple[str, dict[str, Any]]]
    ) -> int:
        """Write a batch of result rows + completion events in one round-trip."""

        return self.call("report_many", results_key, done_key, list(reports))

    def rate_acquire(self, key: str, rate: float, burst: int = 1) -> float:
        """Debit one token from the server-side bucket named ``key``.

        Returns the seconds the *caller* must sleep before acting on the
        grant — the server never sleeps on our behalf.
        """

        return self.call("rate_acquire", key, rate, burst)


class DistributedTokenBucket:
    """A :class:`~repro.utils.ratelimit.TokenBucket` whose balance lives
    in the store server, shared by every worker in the fleet.

    Each acquire is one ``rate_acquire`` frame: the server debits the
    named bucket under its lock and replies with the borrow-wait, and the
    caller sleeps locally.  N workers hitting one endpoint therefore
    drain a *single* token balance — the global rate limit holds no
    matter how the fleet splits the work.  Matches the local bucket's
    surface (``try_acquire``/``acquire``/``acquire_async`` plus the
    ``waited_seconds``/``acquired`` counters) so it plugs straight into
    :class:`~repro.llm.remote.LiveEndpointModel` as its ``limiter``.
    """

    virtual_clock = False  # real wall-clock pacing, by construction

    def __init__(
        self, store: RemoteStore, key: str, rate: float, burst: int = 1
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.store = store
        self.key = key
        self.rate = float(rate)
        self.burst = int(burst)
        self.acquired = 0
        self.waited_seconds = 0.0

    def try_acquire(self) -> float:
        """Debit one token; return seconds the caller must wait before acting."""

        wait = float(self.store.rate_acquire(self.key, self.rate, self.burst))
        self.acquired += 1
        self.waited_seconds += wait
        return wait

    def acquire(self) -> float:
        """Debit one token and sleep out the borrow-wait; returns the wait."""

        wait = self.try_acquire()
        if wait > 0:
            time.sleep(wait)
        return wait

    async def acquire_async(self) -> float:
        """Async acquire: the round-trip runs in a thread, the wait is awaited."""

        loop = asyncio.get_running_loop()
        wait = await loop.run_in_executor(None, self.try_acquire)
        if wait > 0:
            await asyncio.sleep(wait)
        return wait


# -- worker-process context ----------------------------------------------------
#
# Generation tasks execute as plain pickled functions inside a worker
# process; they cannot carry live sockets or injectors in their payload.
# The running FleetWorker registers its address and injector here, and
# the task-side helpers below read them back.

_WORKER_CONTEXT: dict[str, Any] = {"address": None, "injector": None}
_PACER_LOCK = threading.Lock()
_PACERS: dict[str, DistributedTokenBucket] = {}


def worker_injector() -> FaultInjector:
    """The running worker's fault injector (a null injector elsewhere)."""

    injector = _WORKER_CONTEXT.get("injector")
    if injector is None:
        return null_injector()
    return injector


def fleet_pacer(key: str, rate: float, burst: int = 1) -> DistributedTokenBucket | None:
    """The per-process distributed pacer for ``key``, or None outside a worker.

    Memoized per key on its own store connection: every generation task in
    this process shares one bucket client, and the server side shares one
    token balance across the whole fleet.
    """

    address = _WORKER_CONTEXT.get("address")
    if address is None:
        return None
    with _PACER_LOCK:
        pacer = _PACERS.get(key)
        if pacer is None:
            pacer = DistributedTokenBucket(RemoteStore(address), key, rate, burst=burst)
            _PACERS[key] = pacer
        return pacer


class FleetWorker:
    """One out-of-process worker: claim a batch, execute, report, repeat.

    The loop claims job ids through the server's atomic ``claim_many``
    (batch size throttled by the worker's own observed per-job seconds,
    capped at ``claim_batch_limit``), unpickles each job's ``(function,
    tasks)`` payload, applies the function to every task in the chunk,
    and writes the whole batch of result lists in one ``report_many``
    round-trip, first-write-wins — a job a slow worker finishes *after*
    its lease was re-assigned cannot overwrite the authoritative result.
    Results are followed by completion events on ``jobs:done`` so the
    coordinator never polls the results hash.

    A daemon heartbeat thread on a second connection publishes
    ``(sequence, current job ids, throughput)`` every
    ``heartbeat_seconds``; the coordinator renews exactly the named
    jobs' leases, on its own clock, and folds the throughput — EWMA
    records/second split into ``generate_rps``/``score_rps`` — into
    :class:`~repro.evalcluster.master.MasterStats` for the steal policy.
    Losing the store connection mid-run is survivable on both
    connections: :meth:`RemoteStore.call` re-dials and resumes.

    ``fault_plan`` scripts this worker's chaos (each worker process keeps
    its own occurrence counters, so one plan shipped to a whole fleet
    fires per-process): ``worker.claim`` (detail = job id) supports
    ``kill`` — SIGKILL right after the claim is registered, before any
    execution or report, the exact window lease reaping exists for — and
    ``delay``; ``worker.execute`` (detail = the first task's problem id,
    falling back to the job id) supports ``kill`` and ``delay``;
    ``worker.heartbeat`` (detail = worker id) supports ``freeze`` (the
    beat is silently skipped — the worker looks dead while still
    working) and ``delay``.  Generation tasks additionally fire the
    ``worker.generate`` site (detail = problem id, via
    :func:`worker_injector`) per record, supporting ``kill`` and
    ``delay``.  Every fired fault is queued on the store under
    :data:`FAULTS_KEY` for the coordinator's event log.

    Two organic (not injected) protections ride along:

    * **strikes** — the worker counts execution attempts per job in the
      store; a job whose prior attempts already reached ``max_strikes``
      is not executed again but *quarantined*: a degraded failure row is
      written and the job completes, so a poison payload that kills
      every worker that touches it cannot cycle through the fleet
      forever.
    * **watchdog** — with ``job_deadline_seconds`` set, a daemon timer
      SIGKILLs the process if one job executes past the deadline: a hung
      payload would otherwise beat forever and its lease would never
      expire.  Death by watchdog then flows through the ordinary lease →
      requeue → strike machinery.
    """

    def __init__(
        self,
        address: tuple[str, int],
        worker_id: str | None = None,
        heartbeat_seconds: float = 1.0,
        claim_timeout: float = 0.5,
        fault_plan: FaultPlan | None = None,
        max_strikes: int = 2,
        job_deadline_seconds: float | None = None,
        claim_batch_limit: int = 4,
    ) -> None:
        if max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        if job_deadline_seconds is not None and job_deadline_seconds <= 0:
            raise ValueError("job_deadline_seconds must be positive")
        if claim_batch_limit < 1:
            raise ValueError("claim_batch_limit must be >= 1")
        self.address = address
        self.store = RemoteStore(address)
        self.beat_store = RemoteStore(address)
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.heartbeat_seconds = heartbeat_seconds
        self.claim_timeout = claim_timeout
        self.injector = FaultInjector(fault_plan, log=self._publish_fault)
        self.max_strikes = max_strikes
        self.job_deadline_seconds = job_deadline_seconds
        self.claim_batch_limit = claim_batch_limit
        self._job_lock = threading.Lock()
        self._current_jobs: tuple[str, ...] = ()
        self._beat_sequence = 0
        # Observed throughput, folded under _job_lock: per-job wall
        # seconds (sizes the next claim batch) and records/second split
        # by phase (piggybacked on heartbeats for the steal policy).
        self._job_ewma = Ewma()
        self._generate_rps = Ewma()
        self._score_rps = Ewma()

    def _publish_fault(self, event: dict[str, Any]) -> None:
        """Queue a fired fault for the coordinator's event log (best effort).

        Uses the heartbeat connection: the main connection may be parked
        inside a blocking ``claim`` when a heartbeat-site fault fires.
        """

        try:
            self.beat_store.rpush(FAULTS_KEY, {**event, "worker": self.worker_id})
        except (ConnectionError, StoreCommandError):
            pass

    def _warm(self) -> None:
        payload = self.store.get(WARMUP_KEY)
        if payload is None:
            return
        from repro.scoring.compiled import warm_reference_store

        warm_reference_store(pickle.loads(payload))

    def _beat_once(self) -> None:
        spec = self.injector.fire("worker.heartbeat", self.worker_id)
        if spec is not None and spec.kind == "freeze":
            return  # skip silently: to the coordinator this worker looks dead
        self.injector.sleep_if_delay(spec, self.worker_id, self._beat_sequence)
        self._beat_sequence += 1
        with self._job_lock:
            current = self._current_jobs
            throughput: dict[str, float] = {}
            if self._generate_rps.value is not None:
                throughput["generate_rps"] = self._generate_rps.value
            if self._score_rps.value is not None:
                throughput["score_rps"] = self._score_rps.value
        try:
            self.beat_store.hset(
                HEARTBEATS_KEY, self.worker_id, (self._beat_sequence, current, throughput)
            )
        except (ConnectionError, StoreCommandError):
            pass  # a fully lost store ends the claim loop anyway

    def _beat_loop(self, stop: threading.Event) -> None:
        while not stop.is_set():
            self._beat_once()
            stop.wait(self.heartbeat_seconds)

    def _watchdog_fire(self, job_id: str) -> None:
        """A job ran past its deadline: report the kill, then vanish."""

        try:
            self.beat_store.rpush(
                FAULTS_KEY,
                {
                    "event": "watchdog",
                    "worker": self.worker_id,
                    "job": job_id,
                    "deadline": self.job_deadline_seconds,
                },
            )
        except (ConnectionError, StoreCommandError):
            pass
        os.kill(os.getpid(), signal.SIGKILL)

    def _observe(self, results: Sequence[Any], elapsed: float) -> None:
        """Fold one finished job into the throughput EWMAs.

        Result shapes carry their own timing: a generation outcome has
        ``generate_seconds``/``score_seconds`` attributes, a timed score
        envelope is a ``(card, seconds)`` tuple.  Untimed results still
        feed the per-job EWMA that sizes the next claim batch.
        """

        gen_records, gen_seconds = 0, 0.0
        score_records, score_seconds = 0, 0.0
        for item in results:
            generate = getattr(item, "generate_seconds", None)
            score = getattr(item, "score_seconds", None)
            if generate is not None:
                gen_records += 1
                gen_seconds += float(generate)
            if score is not None:
                score_records += 1
                score_seconds += float(score)
            elif (
                generate is None
                and isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[1], (int, float))
            ):
                score_records += 1
                score_seconds += float(item[1])
        with self._job_lock:
            self._job_ewma.observe(elapsed)
            if gen_records and gen_seconds > 0:
                self._generate_rps.observe(gen_records / gen_seconds)
            if score_records and score_seconds > 0:
                self._score_rps.observe(score_records / score_seconds)

    def _claim_limit(self) -> int:
        """How many jobs to claim this round.

        One at a time until the per-job EWMA exists, then up to
        ``claim_batch_limit`` — capped so a batch stays around two
        heartbeat periods of work.  A slow worker naturally claims small
        batches (less to strand when it dies); a fast one amortizes the
        claim round-trip over more jobs.
        """

        with self._job_lock:
            per_job = self._job_ewma.value
        if per_job is None:
            return 1
        budget = int(2.0 * self.heartbeat_seconds / max(per_job, 1e-6))
        return max(1, min(self.claim_batch_limit, budget))

    def _execute(self, job_id: str) -> tuple[str, dict[str, Any]] | None:
        """Run one claimed job; return its ``(job_id, row)`` report.

        Returns None for a stale re-enqueue of an already-collected job
        (nothing to report).  The caller batches rows into one
        ``report_many`` round-trip per claim batch.
        """

        payload = self.store.get(_PAYLOAD_PREFIX + job_id)
        if payload is None:
            return None  # stale re-enqueue of an already-collected job
        attempts = self.store.incr(_STRIKES_PREFIX + job_id)
        if attempts > self.max_strikes:
            # Every allowed attempt already died mid-execution: this
            # payload is poison.  Quarantine it — a degraded failure
            # row and a completion event — instead of feeding it
            # another worker.  The message is deterministic (no
            # clocks, no worker ids) so degraded runs are replayable.
            return (
                job_id,
                {
                    "worker": self.worker_id,
                    "finished_at": time.time(),
                    "passed": False,
                    "degraded": True,
                    "result": f"quarantined after {self.max_strikes} strikes",
                },
            )
        try:
            function, tasks = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - failures are results
            row: dict[str, Any] = {
                "worker": self.worker_id,
                "finished_at": time.time(),
                "passed": False,
                "result": f"{type(exc).__name__}: {exc}",
            }
        else:
            first = tasks[0] if tasks else None
            problem = getattr(first, "problem", None)
            request = getattr(first, "request", None)
            detail = (
                getattr(first, "problem_id", None)
                or getattr(problem, "problem_id", None)
                or getattr(getattr(request, "problem", None), "problem_id", None)
                or job_id
            )
            spec = self.injector.fire("worker.execute", str(detail))
            if spec is not None and spec.kind == "kill":
                # Vanish as a power cut would: claim registered and
                # strike counted, no report, no further heartbeats.
                os.kill(os.getpid(), signal.SIGKILL)
            self.injector.sleep_if_delay(spec, detail)
            watchdog: threading.Timer | None = None
            if self.job_deadline_seconds is not None:
                watchdog = threading.Timer(
                    self.job_deadline_seconds, self._watchdog_fire, args=(job_id,)
                )
                watchdog.daemon = True
                watchdog.start()
            started = time.monotonic()
            try:
                result = [function(task) for task in tasks]
                self._observe(result, time.monotonic() - started)
                row = {
                    "worker": self.worker_id,
                    "finished_at": time.time(),
                    "passed": True,
                    "result": result,
                }
            except Exception as exc:  # noqa: BLE001 - failures are results
                row = {
                    "worker": self.worker_id,
                    "finished_at": time.time(),
                    "passed": False,
                    "result": f"{type(exc).__name__}: {exc}",
                }
            finally:
                if watchdog is not None:
                    watchdog.cancel()
            # The process survived this execution, so the attempt was not
            # a mid-flight death: release the strike.  Strikes thus count
            # only executions that are in flight *right now* or took their
            # worker down — exactly what the quarantine rule and the
            # reaper's free-re-enqueue refinement need, even though the
            # report itself may still be parked in this claim batch.
            self.store.incr(_STRIKES_PREFIX + job_id, -1)
        return (job_id, row)

    def run(self) -> None:
        """Claim and execute jobs until the stop flag is raised."""

        # Register this worker's context so pickled generation tasks can
        # reach the store (distributed pacing) and the fault injector.
        _WORKER_CONTEXT["address"] = self.address
        _WORKER_CONTEXT["injector"] = self.injector
        self._warm()
        self._beat_once()
        stop = threading.Event()
        threading.Thread(
            target=self._beat_loop, args=(stop,), name="fleet-heartbeat", daemon=True
        ).start()
        try:
            while True:
                job_ids = self.store.claim_many(
                    Master.QUEUE_KEY,
                    CLAIMS_KEY,
                    self.worker_id,
                    self._claim_limit(),
                    self.claim_timeout,
                )
                if not job_ids:
                    if self.store.get(STOP_KEY):
                        return
                    continue
                # Every claimed job stays in the heartbeat until the
                # whole batch is *reported* — a finished-but-unreported
                # job must keep its lease alive or the reaper would hand
                # it out again while the report sits in this batch.
                with self._job_lock:
                    self._current_jobs = tuple(job_ids)
                reports: list[tuple[str, dict[str, Any]]] = []
                try:
                    for job_id in job_ids:
                        spec = self.injector.fire("worker.claim", job_id)
                        if spec is not None and spec.kind == "kill":
                            # Vanish as a power cut would — claim
                            # registered, no report, no further
                            # heartbeats: the exact window lease reaping
                            # exists for.
                            os.kill(os.getpid(), signal.SIGKILL)
                        self.injector.sleep_if_delay(spec, job_id)
                        report = self._execute(job_id)
                        if report is not None:
                            reports.append(report)
                    if reports:
                        self.store.report_many(Master.RESULTS_KEY, DONE_KEY, reports)
                finally:
                    with self._job_lock:
                        self._current_jobs = ()
        finally:
            stop.set()
            self.store.close()
            self.beat_store.close()


def run_worker(
    address: tuple[str, int],
    worker_id: str | None = None,
    heartbeat_seconds: float = 1.0,
    claim_timeout: float = 0.5,
    fault_plan: FaultPlan | None = None,
    max_strikes: int = 2,
    job_deadline_seconds: float | None = None,
    claim_batch_limit: int = 4,
) -> None:
    """Module-level worker entry (importable for ``multiprocessing``)."""

    FleetWorker(
        address,
        worker_id=worker_id,
        heartbeat_seconds=heartbeat_seconds,
        claim_timeout=claim_timeout,
        fault_plan=fault_plan,
        max_strikes=max_strikes,
        job_deadline_seconds=job_deadline_seconds,
        claim_batch_limit=claim_batch_limit,
    ).run()


class FleetExecutor:
    """Ordered map over picklable tasks executed by out-of-process workers.

    Two deployment shapes:

    * **Self-hosted** (``num_workers=N``): the first ``submit`` starts an
      in-process :class:`StoreServer` on an ephemeral port and spawns
      ``N`` worker subprocesses (``python -m repro.evalcluster.fleet
      worker``); ``close()`` raises the stop flag and reaps them.
    * **Attached** (``address=(host, port)``): an external store is
      already serving and workers were started by hand (possibly on
      other machines); ``close()`` leaves both alone.

    ``submit`` queues tasks in contiguous *chunks* — one fleet job carries
    ``chunk_size`` tasks (auto-sized to roughly four jobs per worker, the
    same amortisation :class:`~repro.pipeline.executors.ProcessExecutor`
    uses) so the handful of store round-trips a job costs is paid once
    per chunk, not once per task — and returns a :class:`FleetFuture`.
    Its ``result()`` runs the one coordinator loop, which
    blocks on completion events while observing claims and heartbeats —
    every lease is stamped and renewed on *this* process's monotonic
    clock at the moment the observation arrives, so worker clock skew
    cannot corrupt lease arithmetic — and reaps expired leases through
    the master's re-enqueue-once protocol.  The loop keeps one set of
    outstanding jobs for the whole executor, so while it waits for one
    submission it also collects the jobs of any other still in flight
    and parks their rows until their own ``result()`` takes them: the
    offloaded pipeline keeps two batches on the fleet this way.  ``map``
    is ``submit(fn, tasks).result()``.  Results return in task
    order; identical inputs produce identical ScoreCards regardless of
    which worker ran them, so the fleet is bit-identical to the serial
    backend.

    **Degradation** (``degrade=True``, the default): a job the fleet
    infrastructure could not finish — its lease expired twice, or the
    strike counter quarantined it — fills its task slots with
    :class:`~repro.pipeline.executors.DegradedResult` markers instead of
    raising, so a run over a chaotic fleet always terminates with one
    result per task (the score stage turns the markers into error-marked
    zero records, excluded from means and counted against coverage).  A
    failure the *payload* raised still propagates as an exception —
    degradation covers infrastructure loss, not buggy task code.

    **Durability** (``journal=path``, self-hosted only): the in-process
    store is backed by a write-ahead journal, and an injected
    ``coordinator.sync``/``restart`` fault (or a real crash plus a new
    executor on the same journal) rebuilds the store from replay while
    workers and coordinator reconnect with backoff.

    **Chaos** (``fault_plan``): the seeded plan is handed to the
    coordinator (sites ``coordinator.sync``, ``server.command``) and
    shipped on every spawned worker's command line (sites
    ``worker.claim``, ``worker.execute``, ``worker.generate``,
    ``worker.heartbeat``; each worker process counts its own
    occurrences).  In self-hosted mode a
    worker that dies with jobs outstanding is respawned, up to
    ``respawn_limit`` replacements per executor, before the all-dead
    check raises.

    ``event_log`` (a JSONL path) records submit/claim/done/requeue/
    abandon/fault/respawn events for run forensics; the CI benchmark
    uploads it.
    """

    name = "fleet"
    #: The score stage switches to picklable task envelopes for this backend.
    requires_picklable_tasks = True

    def __init__(
        self,
        num_workers: int | None = None,
        address: tuple[str, int] | None = None,
        lease_seconds: float | None = 30.0,
        heartbeat_seconds: float | None = None,
        claim_timeout: float = 0.5,
        poll_seconds: float = 0.05,
        chunk_size: int | None = None,
        event_log: str | os.PathLike[str] | None = None,
        journal: str | os.PathLike[str] | None = None,
        fault_plan: FaultPlan | None = None,
        max_strikes: int = 2,
        job_deadline_seconds: float | None = None,
        respawn_limit: int = 2,
        degrade: bool = True,
        claim_batch_limit: int = 4,
    ) -> None:
        if (num_workers is None) == (address is None):
            raise ValueError(
                "pass exactly one of num_workers (self-hosted fleet) or address (attach)"
            )
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if lease_seconds is not None and lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if journal is not None and address is not None:
            raise ValueError("journal is for the self-hosted store; an attached store owns its own")
        if max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        if respawn_limit < 0:
            raise ValueError("respawn_limit must be >= 0")
        if claim_batch_limit < 1:
            raise ValueError("claim_batch_limit must be >= 1")
        self.claim_batch_limit = claim_batch_limit
        self.num_workers = num_workers
        self.address = (address[0], int(address[1])) if address is not None else None
        self.lease_seconds = lease_seconds
        if heartbeat_seconds is None:
            heartbeat_seconds = (lease_seconds / 4.0) if lease_seconds is not None else 1.0
        self.heartbeat_seconds = heartbeat_seconds
        self.claim_timeout = claim_timeout
        self.poll_seconds = poll_seconds
        self.chunk_size = chunk_size
        self.journal = Path(journal) if journal is not None else None
        self.fault_plan = fault_plan
        self.max_strikes = max_strikes
        self.job_deadline_seconds = job_deadline_seconds
        self.respawn_limit = respawn_limit
        self.degrade = degrade
        self._events = JsonlLog(event_log) if event_log is not None else None
        self._event_buffer: list[str] = []
        self._epoch = time.monotonic()
        self._lock = threading.RLock()
        self._injector = FaultInjector(fault_plan, log=self._log_fault)
        self._server: StoreServer | None = None
        self._store: RemoteStore | None = None
        self._master: Master | None = None
        self._procs: list[subprocess.Popen[bytes]] = []
        self._respawned = 0
        self._warm_problems: tuple[Any, ...] | None = None
        self._job_counter = 0
        self._job_prefix = f"job-{os.getpid()}"
        self._connect: tuple[str, int] | None = None
        self._seen_claims: dict[str, Any] = {}
        self._seen_beats: dict[str, int] = {}
        #: Submitted jobs without a collected row, across every submission.
        self._outstanding: set[str] = set()
        #: Collected rows no future has taken yet.
        self._rows: dict[str, dict[str, Any]] = {}

    # -- lifecycle -----------------------------------------------------------
    def warm(self, problems: Sequence[Any]) -> "FleetExecutor":
        """Precompile ``problems``' references in every worker process.

        Must be called before the first ``submit`` or ``map`` (workers
        read the warmup key at startup); returns self for chaining.
        """

        if self._store is not None:
            raise RuntimeError("warm() must be called before the first map()")
        self._warm_problems = tuple(problems)
        return self

    def _ensure_started(self) -> None:
        if self._store is not None:
            return
        if self.address is None:
            self._server = StoreServer(journal=self.journal, injector=self._injector).start()
            connect = self._server.address
        else:
            connect = self.address
        store = RemoteStore(connect)
        store.ping()  # fail fast when attaching to nothing
        if self._warm_problems is not None:
            store.set(
                WARMUP_KEY,
                pickle.dumps(self._warm_problems, protocol=pickle.HIGHEST_PROTOCOL),
            )
        self._store = store
        self._master = Master(store=store, lease_seconds=self.lease_seconds)
        self._connect = connect
        if self.num_workers is not None:
            for index in range(self.num_workers):
                worker_id = f"worker-{os.getpid()}-{index}"
                self._procs.append(self._spawn_worker(worker_id))
                self._log_event("spawn", worker=worker_id)

    def _spawn_worker(self, worker_id: str) -> subprocess.Popen[bytes]:
        host, port = self._connect
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable,
            "-m",
            "repro.evalcluster.fleet",
            "worker",
            "--connect",
            f"{host}:{port}",
            "--worker-id",
            worker_id,
            "--heartbeat",
            str(self.heartbeat_seconds),
            "--claim-timeout",
            str(self.claim_timeout),
            "--max-strikes",
            str(self.max_strikes),
            "--claim-batch",
            str(self.claim_batch_limit),
        ]
        if self.fault_plan is not None:
            command += ["--fault-plan", self.fault_plan.to_json()]
        if self.job_deadline_seconds is not None:
            command += ["--job-deadline", str(self.job_deadline_seconds)]
        return subprocess.Popen(command, env=env)

    def close(self) -> None:
        """Stop managed workers and the self-hosted server, flush events."""

        with self._lock:
            if self._procs and self._store is not None:
                try:
                    self._store.set(STOP_KEY, True)
                except ConnectionError:
                    pass
            for proc in self._procs:
                try:
                    proc.wait(timeout=2.0 + 4.0 * self.claim_timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            self._procs = []
            if self._server is not None:
                self._server.close()
                self._server = None
            if self._store is not None:
                self._store.close()
                self._store = None
            self._master = None
            self._seen_claims.clear()
            self._seen_beats.clear()
            self._outstanding.clear()
            self._rows.clear()
            self._flush_events()

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability -------------------------------------------------------
    def stats(self) -> MasterStats | None:
        """The master's queue/fleet snapshot (None before the first submit)."""

        with self._lock:
            if self._master is None:
                return None
            return self._master.stats(time.monotonic())

    def _log_event(self, event: str, **fields: Any) -> None:
        if self._events is None:
            return
        payload = {"event": event, "t": round(time.monotonic() - self._epoch, 6), **fields}
        self._event_buffer.append(json.dumps(payload, sort_keys=True) + "\n")

    def _log_fault(self, event: dict[str, Any]) -> None:
        """Injector callback: a coordinator-side fault fired."""

        self._log_event("fault", **{k: v for k, v in event.items() if k != "event"})

    def _drain_faults(self) -> None:
        """Pull worker-reported fault/watchdog events into the event log.

        Workers queue their fired faults on :data:`FAULTS_KEY` (they have
        no JSONL log of their own); draining here puts injected chaos in
        the same stream as the claims/requeues it provokes.  Drained even
        with no event log configured, so the list cannot grow unbounded.
        """

        assert self._store is not None
        while True:
            try:
                event = self._store.lpop(FAULTS_KEY)
            except (ConnectionError, StoreCommandError):
                return
            if event is None:
                return
            if isinstance(event, dict):
                name = str(event.pop("event", "fault"))
                self._log_event(name, **event)

    def _flush_events(self) -> None:
        if self._events is None or not self._event_buffer:
            return
        self._events.append(self._event_buffer)
        self._event_buffer = []

    # -- the executor protocol ----------------------------------------------
    def _chunk_size_for(self, task_count: int) -> int:
        """Tasks per job: explicit override, else ~4 jobs per worker.

        In attach mode the fleet size is whatever has heartbeated so far
        (workers beat once before their first claim); an empty roster —
        workers still booting — falls back to single-task jobs, which is
        always correct, just less amortised.
        """

        if self.chunk_size is not None:
            return self.chunk_size
        if self.num_workers is not None:
            fleet_size = self.num_workers
        else:
            assert self._store is not None
            fleet_size = self._store.hlen(HEARTBEATS_KEY)
            if fleet_size < 1:
                return 1
        return max(1, task_count // (fleet_size * 4))

    def submit(self, fn: Callable[[T], R], tasks: Sequence[T]) -> "FleetFuture[R]":
        """Queue ``fn`` over ``tasks`` on the fleet and return at once.

        The tasks are cut into chunks; each chunk's payload is stored and
        its job queued.  The returned :class:`FleetFuture` gives the
        results in task order.  Submissions may overlap: whichever
        ``result()`` runs the coordinator loop also collects, reaps and
        degrades the jobs of every other outstanding submission, so a
        worker that finishes one submission claims the next at once.
        """

        tasks = list(tasks)
        if not tasks:
            return FleetFuture(self, [], [])
        with self._lock:
            self._ensure_started()
            assert self._store is not None and self._master is not None
            size = self._chunk_size_for(len(tasks))
            chunks = [tasks[start : start + size] for start in range(0, len(tasks), size)]
            jobs: list[EvaluationJob] = []
            job_ids: list[str] = []
            for chunk in chunks:
                self._job_counter += 1
                job_id = f"{self._job_prefix}-{self._job_counter:08d}"
                job_ids.append(job_id)
                problem = getattr(chunk[0], "problem", None)
                problem_id = (
                    getattr(chunk[0], "problem_id", None)
                    or getattr(problem, "problem_id", None)
                    or job_id
                )
                self._store.set(
                    _PAYLOAD_PREFIX + job_id,
                    pickle.dumps((fn, chunk), protocol=pickle.HIGHEST_PROTOCOL),
                )
                jobs.append(EvaluationJob(job_id=job_id, problem_id=problem_id))
            # Payloads are durably in the store before any id is queued, so
            # no worker can ever claim an id whose payload is not there yet.
            self._master.submit(jobs)
            self._outstanding.update(job_ids)
            self._log_event("submit", count=len(jobs), tasks=len(tasks), chunk=size)
        return FleetFuture(self, job_ids, chunks)

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return self.submit(fn, tasks).result()

    def _take_rows(self, job_ids: list[str]) -> list[dict[str, Any]]:
        """Drive the fleet until every job in ``job_ids`` has a row, then
        hand those rows out — each row leaves the executor exactly once."""

        with self._lock:
            for job_id in job_ids:
                if job_id not in self._rows and job_id not in self._outstanding:
                    raise RuntimeError(
                        f"fleet job {job_id} is not outstanding (its result was "
                        f"taken, or the executor was closed since it was submitted)"
                    )
            self._drive(set(job_ids))
            self._flush_events()
            return [self._rows.pop(job_id) for job_id in job_ids]

    # -- the coordinator loop ------------------------------------------------
    def _drive(self, wanted: set[str]) -> None:
        """Block until every job in ``wanted`` has a collected row.

        One loop serves every outstanding submission: drain completion
        events (the hot path) — a row for a job another future waits on
        is parked in ``_rows`` for it — and, at most once per poll
        interval, observe claims and heartbeats, reap expired leases, and
        verify the managed workers still exist.
        """

        assert self._store is not None and self._master is not None
        last_sync = -1.0
        while not self._rows.keys() >= wanted:
            job_id = self._store.blpop(DONE_KEY, self.poll_seconds)
            now = time.monotonic()
            if job_id is not None and job_id in self._outstanding:
                row = self._store.hget(Master.RESULTS_KEY, job_id)
                if row is not None:
                    self._collect(job_id, row)
            if now - last_sync >= self.poll_seconds:
                last_sync = now
                spec = self._injector.fire("coordinator.sync")
                if spec is not None and spec.kind == "restart":
                    self._restart_server()
                else:
                    self._injector.sleep_if_delay(spec)
                self._sync_claims(now)
                self._sync_heartbeats(now)
                self._reap(now)
                self._drain_faults()
                self._check_workers()
        # One last observation pass: a short submission can drain entirely
        # within a single sync window, and stats()/the leaderboard footer
        # should still see every worker that participated.
        self._sync_heartbeats(time.monotonic())
        self._drain_faults()

    def _restart_server(self) -> None:
        """Injected ``restart`` fault: kill the self-hosted store and
        rebuild it on the same port from its journal.

        Clients (workers, and this coordinator's own :class:`RemoteStore`)
        see their connections die and reconnect with backoff; the journal
        replay restores exactly the acknowledged pre-crash state, so the
        run resumes as if the store process had been SIGKILLed and
        relaunched.  Without a journal (or in attach mode) the fault is
        logged and skipped — there would be no state to come back to.
        """

        if self._server is None or self.journal is None:
            self._log_event("restart-skipped", reason="no self-hosted journal-backed store")
            return
        host, port = self._server.host, self._server.port
        self._server.crash()
        self._server = StoreServer(
            host=host, port=port, journal=self.journal, injector=self._injector
        ).start()
        replayed = getattr(self._server.store, "replayed_ops", None)
        self._log_event("restart", port=port, replayed=replayed)

    def _collect(self, job_id: str, row: dict[str, Any]) -> None:
        assert self._store is not None and self._master is not None
        self._rows[job_id] = row
        self._outstanding.discard(job_id)
        self._master.note_completed(job_id)
        self._store.hdel(CLAIMS_KEY, job_id)
        self._seen_claims.pop(job_id, None)
        self._store.delete(_PAYLOAD_PREFIX + job_id)
        self._store.delete(_STRIKES_PREFIX + job_id)
        self._log_event("done", job=job_id, worker=row.get("worker"), passed=row.get("passed"))

    def _sync_claims(self, now: float) -> None:
        assert self._store is not None and self._master is not None
        for job_id, value in self._store.hgetall(CLAIMS_KEY).items():
            if job_id not in self._outstanding or self._seen_claims.get(job_id) == value:
                continue
            self._seen_claims[job_id] = value
            worker_id, _sequence = value
            self._master.note_claim(job_id, worker_id, now)
            self._log_event("claim", job=job_id, worker=worker_id)

    @staticmethod
    def _parse_heartbeat(value: Any) -> tuple[int, tuple[str, ...], dict[str, float]]:
        """Decode one heartbeat value, tolerating the legacy 2-tuple shape.

        Current workers publish ``(sequence, job ids, throughput)``;
        pre-batching workers published ``(sequence, job id or None)``.
        Mixed fleets (a rolling upgrade) must not strand the old shape.
        """

        sequence = value[0]
        current = value[1] if len(value) > 1 else None
        if current is None:
            jobs: tuple[str, ...] = ()
        elif isinstance(current, str):
            jobs = (current,)
        else:
            jobs = tuple(current)
        throughput = dict(value[2]) if len(value) > 2 and value[2] else {}
        return sequence, jobs, throughput

    def _sync_heartbeats(self, now: float) -> None:
        assert self._store is not None and self._master is not None
        for worker_id, value in self._store.hgetall(HEARTBEATS_KEY).items():
            sequence, jobs, throughput = self._parse_heartbeat(value)
            if self._seen_beats.get(worker_id) == sequence:
                continue  # no fresh beat: do NOT renew from a stale value
            self._seen_beats[worker_id] = sequence
            self._master.record_heartbeat(worker_id, now, jobs=jobs, throughput=throughput)

    def worker_relative_speeds(self) -> list[float]:
        """Observed per-worker speeds, normalised to the fleet mean.

        Each worker's heartbeat-reported rates (generate + score
        records/second) are summed and divided by the fleet average, so
        ``1.0`` is an average worker, ``0.5`` half speed.  Sorted
        descending; empty before any throughput has been observed.  The
        scheduler cycles these onto its consumer threads to weight steal
        decisions by who is actually claiming.
        """

        with self._lock:
            stats = None if self._master is None else self._master.stats(time.monotonic())
        if stats is None or not stats.worker_throughput:
            return []
        totals = [sum(rates.values()) for rates in stats.worker_throughput.values()]
        totals = [total for total in totals if total > 0]
        if not totals:
            return []
        mean = sum(totals) / len(totals)
        return sorted((total / mean for total in totals), reverse=True)

    def _attempts_of(self, job_id: str) -> int:
        """Execution attempts currently charged against ``job_id``.

        Read from the worker-maintained strike counters: zero means the
        dead claimant never started (or cleanly finished) this job, so
        the reaper re-enqueues it without burning its once-only budget —
        a batch-claiming worker's death must not poison-flag the innocent
        jobs stranded in its batch.  A store hiccup counts as one attempt
        (the conservative, pre-batching behavior).
        """

        assert self._store is not None
        try:
            return max(0, int(self._store.get(_STRIKES_PREFIX + job_id) or 0))
        except (ConnectionError, StoreCommandError):
            return 1

    def _reap(self, now: float) -> None:
        assert self._store is not None and self._master is not None
        if self.lease_seconds is None:
            return
        expiry = self._master.next_lease_expiry()
        if expiry is None or now < expiry:
            return
        requeued = self._master.reap_expired(now, attempts=self._attempts_of)
        for job_id in requeued:
            # The master already cleared the claim row before re-queueing;
            # deleting it here again could race a parked worker's instant
            # re-claim and erase the *fresh* claim.  Only forget the stale
            # value so the re-claim is synced as new.
            self._seen_claims.pop(job_id, None)
            self._log_event("requeue", job=job_id)
        # A job reaped twice was reported failed by the master itself; no
        # completion event will ever arrive for it, so collect it here.
        for job_id in self._master.abandoned_jobs() & self._outstanding:
            row = self._store.hget(Master.RESULTS_KEY, job_id)
            if row is not None:
                self._collect(job_id, row)
                self._log_event("abandon", job=job_id)

    def _check_workers(self) -> None:
        """Self-hosted mode: respawn dead workers, fail when all are gone.

        A worker process that exited with jobs outstanding (a crash, an
        injected kill, the watchdog) is replaced — same spawn arguments,
        a fresh worker id — up to ``respawn_limit`` replacements per
        executor, so a chaotic run keeps its fleet size.  Only when every
        process is dead and the respawn budget is spent does the
        coordinator raise.  In attach mode it cannot know the fleet's
        size, so it keeps waiting — leases still requeue work for
        whoever shows up.
        """

        if not self._procs:
            return
        alive: list[subprocess.Popen[bytes]] = []
        for proc in self._procs:
            if proc.poll() is None:
                alive.append(proc)
                continue
            self._log_event("worker-exit", code=proc.returncode)
            if self._outstanding and self._respawned < self.respawn_limit:
                self._respawned += 1
                worker_id = f"worker-{os.getpid()}-r{self._respawned}"
                alive.append(self._spawn_worker(worker_id))
                self._log_event("respawn", worker=worker_id)
        self._procs = alive
        if not self._procs:
            raise RuntimeError(
                f"all fleet worker processes exited (respawn budget "
                f"{self.respawn_limit} spent) with {len(self._outstanding)} jobs outstanding"
            )


class FleetFuture(Generic[R]):
    """The pending results of one :meth:`FleetExecutor.submit`.

    ``result()`` blocks until every job of the submission is reported and
    returns one result per task, in task order.  A job the infrastructure
    lost fills its slots with
    :class:`~repro.pipeline.executors.DegradedResult` markers (when the
    executor degrades); a failure the payload raised is re-raised as
    :class:`RuntimeError`.  The call takes the rows out of the executor,
    so it can be made once.
    """

    def __init__(
        self, executor: FleetExecutor, job_ids: list[str], chunks: list[list[Any]]
    ) -> None:
        self._executor = executor
        self._job_ids = job_ids
        self._chunks = chunks

    def result(self) -> list[R]:
        rows = self._executor._take_rows(self._job_ids) if self._job_ids else []
        results: list[R] = []
        for job_id, chunk, row in zip(self._job_ids, self._chunks, rows):
            if row["passed"]:
                results.extend(row["result"])
            elif self._executor.degrade and row.get("degraded"):
                # The infrastructure lost this job (abandoned or
                # quarantined): fill its slots with typed markers so the
                # run terminates with a result per task.  The reason is
                # deterministic given the fault plan.
                reason = str(row.get("result") or "fleet job degraded")
                results.extend(DegradedResult(reason=reason) for _ in chunk)  # type: ignore[misc]
            else:
                raise RuntimeError(f"fleet job {job_id} failed: {row['result']}")
        return results


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``fleet store`` serves a store, ``fleet worker`` joins a fleet."""

    parser = argparse.ArgumentParser(
        prog="python -m repro.evalcluster.fleet",
        description="Run a fleet store server or a fleet worker.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    store_cmd = commands.add_parser("store", help="serve a RedisLikeStore over TCP")
    store_cmd.add_argument("--host", default="127.0.0.1")
    store_cmd.add_argument("--port", type=int, default=6399)
    store_cmd.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead journal file; an existing one is replayed on start",
    )

    worker_cmd = commands.add_parser("worker", help="claim and execute jobs from a store")
    worker_cmd.add_argument("--connect", required=True, metavar="HOST:PORT")
    worker_cmd.add_argument("--worker-id", default=None)
    worker_cmd.add_argument("--heartbeat", type=float, default=1.0)
    worker_cmd.add_argument("--claim-timeout", type=float, default=0.5)
    worker_cmd.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help="seeded FaultPlan (FaultPlan.to_json()) scripting this worker's chaos",
    )
    worker_cmd.add_argument(
        "--max-strikes",
        type=int,
        default=2,
        help="execution attempts a job gets before the worker quarantines it",
    )
    worker_cmd.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: SIGKILL self if one job executes past this deadline",
    )
    worker_cmd.add_argument(
        "--claim-batch",
        type=int,
        default=4,
        metavar="N",
        help="upper bound on jobs claimed per claim_many round-trip",
    )

    args = parser.parse_args(argv)
    if args.command == "store":
        server = StoreServer(host=args.host, port=args.port, journal=args.journal).start()
        print(f"fleet store serving on {server.host}:{server.port}", flush=True)
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            server.close()
        return 0

    host, _, port = args.connect.rpartition(":")
    run_worker(
        (host, int(port)),
        worker_id=args.worker_id,
        heartbeat_seconds=args.heartbeat,
        claim_timeout=args.claim_timeout,
        fault_plan=FaultPlan.from_json(args.fault_plan) if args.fault_plan else None,
        max_strikes=args.max_strikes,
        job_deadline_seconds=args.job_deadline,
        claim_batch_limit=args.claim_batch,
    )
    return 0


if __name__ == "__main__":
    # ``python -m repro.evalcluster.fleet`` executes this file as
    # ``__main__`` — a *second* module instance, separate from the
    # ``repro.evalcluster.fleet`` that pickled payloads import.  A worker
    # must run under the canonical instance or its registered context
    # (``_WORKER_CONTEXT``: the store address for distributed pacing, the
    # fault injector for ``worker.generate`` chaos) would be invisible to
    # :func:`repro.pipeline.stages.run_generation_task`.
    from repro.evalcluster.fleet import main as _canonical_main

    raise SystemExit(_canonical_main())
