"""The benchmark's single-threaded client of a live ``EngineServer``.

One client process drives one fresh server per phase:

* :func:`setup` times ``SOIEngine(...)`` -> the two steps of
  ``EngineServer.for_engine(...)`` -> the first answer, i.e. what an
  operator waits for after the data is loaded.
* :func:`closed_loop` keeps at most ``window`` requests in flight,
  counts completions per second and times each request from its submit.
* :func:`open_loop` submits on a seeded Poisson schedule and times every
  request from when it was *due*, so the client's own submit lateness
  (``lag``) is part of the latency, and records the worker-reported
  service time so that ``latency = lag + wait + service`` per request.
* :func:`close_and_check` closes the server and fails the run if a worker
  process or the snapshot's shared-memory block outlives it.

Only the public ``EngineServer`` API is used.  Every served payload is
kept with its request so that the caller can compare it with the
in-process reference after the timed phases.  A crashed or stalled
worker is raised to the caller (:data:`POOL_FAILURES`); the loops have
already counted what they sent, so the requests in flight count as
failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.errors import SnapshotError, WorkerCrashError, WorkerStallError
from repro.serve.server import EngineServer
from repro.serve.snapshot import IndexSnapshot

DRAIN_TIMEOUT_S = 30.0
"""How long a phase waits for its last in-flight requests before it
counts them as failed."""


@dataclass
class ServerConfig:
    """The fixed server configuration every run uses."""

    workers: int
    micro_batch: int = 1
    cache: bool = True
    eps: float = DEFAULT_EPS

    def as_dict(self) -> dict:
        return {"workers": self.workers, "micro_batch": self.micro_batch,
                "cache": self.cache, "eps": self.eps}


@dataclass
class Served:
    """What the phases of a run sent and got back.

    The loops add to one ``Served`` as they go, so that what was sent
    before a worker crash or stall is still counted when the loop raises.
    """

    answered: list = field(default_factory=list)
    """``(request, payload)`` for every request that came back."""
    attempted: int = 0
    samples: list = field(default_factory=list)
    """``(latency, lag, service)`` seconds of every open-loop answer."""
    closed_samples: list = field(default_factory=list)
    """``(latency, service)`` seconds of every timed closed-loop answer."""


class SpanLog:
    """In-memory spans ``(name, start, end, parent, request_id)``.

    A span is appended when it opens and gets its end when it closes;
    the run writes the list out once, when it ends.  Callers pass
    ``None`` instead of a log to record nothing.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def open(self, name: str, rid=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, rid])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def span(self, name: str, rid=None):
        return _Span(self, name, rid)


class _Span:
    __slots__ = ("log", "name", "rid", "index")

    def __init__(self, log: SpanLog, name: str, rid) -> None:
        self.log, self.name, self.rid = log, name, rid

    def __enter__(self) -> "_Span":
        self.index = self.log.open(self.name, self.rid)
        return self

    def __exit__(self, *exc_info) -> None:
        self.log.close(self.index)


def setup(city, config: ServerConfig, first_request):
    """Build an engine, start a server over it and wait for one answer.

    The two steps of ``EngineServer.for_engine`` -- snapshot export, then
    the pool constructor -- are called one after the other so that the
    pool's start can be timed on its own.  Returns ``(server, seconds,
    spawn_s, first_payload)``, where ``spawn_s`` runs from the pool
    constructor to the first answer.
    """
    t0 = time.perf_counter()
    engine = SOIEngine(city.network, city.pois)
    snapshot = IndexSnapshot.export(engine, city.photos,
                                    warm_eps=(config.eps,))
    t1 = time.perf_counter()
    server = EngineServer(snapshot, workers=config.workers, source=engine,
                          source_photos=city.photos,
                          micro_batch=config.micro_batch, cache=config.cache)
    try:
        server.submit(first_request)
        _seq, payload, _service = server.next_result(timeout=DRAIN_TIMEOUT_S)
    except BaseException:
        server.close()
        raise
    t2 = time.perf_counter()
    return server, t2 - t0, t2 - t1, payload


def closed_loop(server: EngineServer, requests, window: int,
                seconds: float | None, served: Served,
                spans: SpanLog | None = None, rid_base: int = 0,
                samples: list | None = None):
    """Serve ``requests`` with at most ``window`` in flight.

    With ``seconds`` set, submission stops once that long has passed
    (or the list runs out) and the in-flight tail is drained; the elapsed
    time runs from the first submit to the last completion.  Adds to
    ``served`` and returns ``(attempted, answered, elapsed_s)`` of this
    call.  With ``samples`` given, appends one ``(latency, service)`` in
    seconds per answer to it, the latency running from the submit to the
    moment ``next_result`` returned the answer.
    """
    outstanding: dict[int, tuple] = {}
    position = answered = 0
    start = time.perf_counter()
    stop_at = None if seconds is None else start + seconds
    while True:
        while (position < len(requests) and server.inflight < window
               and (stop_at is None or time.perf_counter() < stop_at)):
            seq = _submit(server, requests[position], spans,
                          rid_base + position)
            outstanding[seq] = (requests[position], time.perf_counter())
            served.attempted += 1
            position += 1
        if not server.inflight:
            break
        arrival = _next(server, spans, DRAIN_TIMEOUT_S)
        if arrival is _TIMED_OUT:
            break
        if arrival is not None:
            arrived = time.perf_counter()
            seq, payload, service_s = arrival
            request, submitted = outstanding.pop(seq)
            served.answered.append((request, payload))
            if samples is not None:
                samples.append((arrived - submitted, service_s))
            answered += 1
    return position, answered, time.perf_counter() - start


def open_loop(server: EngineServer, requests, offsets: list[float],
              served: Served, spans: SpanLog | None = None,
              rid_base: int = 0) -> int:
    """Submit ``requests[i]`` at ``offsets[i]`` seconds after the start.

    Adds one ``(latency, lag, service)`` sample in seconds to
    ``served.samples`` per request that came back, where latency runs
    from the due time to the moment ``next_result`` returned it and lag
    is how late the submit ran.  ``wait = latency - lag - service`` is
    the queue, IPC and parent-side time.  Returns how many requests this
    call submitted.
    """
    pending: dict[int, tuple] = {}
    count = min(len(requests), len(offsets))
    position = 0
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        while position < count and start + offsets[position] <= now:
            due = start + offsets[position]
            seq = _submit(server, requests[position], spans,
                          rid_base + position)
            now = time.perf_counter()
            pending[seq] = (requests[position], due, now)
            served.attempted += 1
            position += 1
        if position < count:
            until_due = max(0.0, start + offsets[position] - now)
            if not server.inflight:
                time.sleep(until_due)
                continue
            if not answer_ready(server, until_due):
                continue
            timeout = until_due
        elif server.inflight:
            timeout = DRAIN_TIMEOUT_S
        else:
            break
        arrival = _next(server, spans, timeout)
        if arrival is _TIMED_OUT:
            if position >= count:
                break
            continue
        if arrival is None:
            continue
        arrived = time.perf_counter()
        seq, payload, service_s = arrival
        request, due, submitted = pending.pop(seq)
        served.answered.append((request, payload))
        served.samples.append((arrived - due, submitted - due, service_s))
    return position


def answer_ready(server: EngineServer, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for an answer that ``next_result``
    can hand out at once; ``True`` when there is one.

    ``next_result`` blocks in whole 100 ms polls of the result queue
    whatever its ``timeout``, and the server has no public non-blocking
    read.  A single-threaded client that called it while the next
    request fell due would submit that request only when some answer
    came back, so its latency would include the remaining service time
    of an unrelated request.  The open loop therefore waits, like an
    event-loop client, on the result queue's pipe and the server's
    locally completed answers (parent-side cache hits) until either has
    an answer or the next request is due.  Where the server does not
    expose them, it falls back to ``next_result``'s own wait (``True``).
    """
    ready = getattr(server, "_ready", None)
    reader = getattr(getattr(server, "_results", None), "_reader", None)
    if ready is None or reader is None:
        return True
    if ready:
        return True
    return bool(mp_connection.wait([reader], timeout))


_TIMED_OUT = object()

POOL_FAILURES = (WorkerCrashError, WorkerStallError)
"""Errors that end a run: the pool can no longer answer."""


def _submit(server: EngineServer, request, spans: SpanLog | None,
            rid: int) -> int:
    if spans is None:
        return server.submit(request)
    with spans.span("client.submit", rid):
        return server.submit(request)


def _next(server: EngineServer, spans: SpanLog | None, timeout: float):
    """The next ``(seq, payload, service_s)``; ``None`` when the request
    raised (the server drops its sequence number, so it simply never
    arrives and counts as failed); ``_TIMED_OUT`` when nothing came.

    A crashed or stalled worker (:data:`POOL_FAILURES`) is raised to the
    caller: the server raises it on every later call too, so treating it
    as one failed request would loop forever.
    """
    try:
        if spans is None:
            return server.next_result(timeout=timeout)
        with spans.span("client.next_result"):
            return server.next_result(timeout=timeout)
    except TimeoutError:
        return _TIMED_OUT
    except POOL_FAILURES:
        raise
    except Exception:
        return None


def worker_pids(server: EngineServer) -> list[int]:
    return [entry["pid"] for entry in server.worker_health()]


def rss_mb(pid: int | str = "self", field: str = "VmHWM") -> float:
    """A memory figure of a process from ``/proc/<pid>/status`` in MiB:
    ``VmHWM`` (peak RSS) by default, ``VmRSS`` for the current RSS.
    0.0 where ``/proc`` has no entry."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def close_and_check(server: EngineServer) -> list[str]:
    """Close ``server``; list every worker or shm block that survived."""
    name = server.snapshot.name
    try:
        server.close()
    finally:
        leaks = [f"worker {entry['worker']} (pid {entry['pid']}) alive "
                 f"after close" for entry in server.worker_health()
                 if entry["alive"]]
        try:
            survivor = IndexSnapshot.attach(name)
        except SnapshotError:
            pass
        else:
            # Report the leak, then remove the block so that it does not
            # outlive the benchmark as well.
            survivor.close()
            survivor.unlink()
            leaks.append(f"shared-memory block {name!r} outlived close()")
    return leaks
