"""The query mix and the single-process open-loop HTTP load generator.

The mix is built in the benchmark process from the same report files the
server indexes, with an in-process :class:`repro.serving.FrontStore` and
:class:`repro.serving.QueryEngine`, so every request carries the exact
status and body the server must answer. Four request kinds:

* ``cheapest`` — ``POST /query`` with ``min_accuracy`` plus ``order_by``
  and ``top_k`` ("the cheapest design at >= X% accuracy");
* ``nearest`` — ``POST /query`` with a ``nearest`` trade-off and ``top_k``;
* ``page`` — ``GET /fronts/<ds>?offset=&limit=``;
* ``conditional`` — ``GET /fronts/<ds>`` with the ``ETag`` seen earlier in
  the run, answered ``304 Not Modified``.

The generator is one thread over at most ``min(2, nproc)`` keep-alive
connections, driven by ``selectors``. Open loop: request ``i`` is due at
``start + i / rate`` whether or not earlier ones were answered, waits in a
queue while every connection is busy, and its latency is timed from when
it was due. The generator's own lateness — how long after a request could
have gone out it actually did — is reported, and a phase whose lateness
exceeds :data:`MAX_LATENESS_S` is invalid.
"""

from __future__ import annotations

import json
import math
import os
import random
import selectors
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

now = time.perf_counter

#: Share of each request kind in the seeded mix. The repository records no
#: real traffic, so the shares are an assumption, not a measurement: each
#: kind gets an equal share.
MIX_WEIGHTS = {"cheapest": 0.25, "nearest": 0.25, "page": 0.25, "conditional": 0.25}

#: Keep-alive connections of the generator (never more than the cores).
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))

#: A phase whose generator ran later than this is invalid.
MAX_LATENESS_S = 0.1

#: p99 limit that defines ``max_rps`` (see perfbench/README.md).
P99_LIMIT_MS = 50.0


@dataclass
class Request:
    """One distinct request with the answer the server must give."""

    kind: str
    dataset: str
    method: str
    target: str
    body: bytes
    status: int
    expected: bytes
    etag: Optional[str] = None

    def wire(self, seen_etags: Dict[str, str]) -> bytes:
        head = f"{self.method} {self.target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if self.kind == "conditional":
            head += f"If-None-Match: {seen_etags[self.dataset]}\r\n"
        if self.body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(self.body)}\r\n"
        return (head + "\r\n").encode("ascii") + self.body


def _json_bytes(document) -> bytes:
    return (json.dumps(document) + "\n").encode("utf-8")


def build_requests(campaigns: Sequence[Path], seed: int) -> Tuple[List[Request], List[Request]]:
    """``(full-front GETs, distinct mix requests)`` with expected answers."""
    from repro.serving import FrontStore, QueryEngine

    rng = random.Random(f"mix-{seed}")
    store = FrontStore([str(c) for c in campaigns])
    engine = QueryEngine(store)
    fronts: List[Request] = []
    mix: List[Request] = []
    for dataset in store.datasets():
        raw, fingerprint = store.front(dataset)
        etag = f'"{fingerprint}"'
        fronts.append(Request("front", dataset, "GET", f"/fronts/{dataset}", b"", 200, raw, etag))
        mix.append(Request("conditional", dataset, "GET", f"/fronts/{dataset}", b"", 304, b""))
        document = json.loads(raw.decode("utf-8"))
        rows = document["front"]
        accuracies = sorted(point["accuracy"] for point in rows)
        for fraction in (0.1, 0.5, 0.9):
            threshold = round(accuracies[int(fraction * (len(accuracies) - 1))], 4)
            for order_by in ("area", "power"):
                mix.append(_query(engine, "cheapest", {
                    "dataset": dataset, "min_accuracy": threshold,
                    "order_by": order_by, "top_k": rng.choice((1, 3)),
                }))
        for _ in range(4):
            point = rng.choice(rows)
            target = {"accuracy": round(point["accuracy"] * rng.uniform(0.97, 1.0), 4),
                      "area": round(point["area"] * rng.uniform(0.8, 1.2), 4)}
            mix.append(_query(engine, "nearest", {
                "dataset": dataset, "nearest": target, "top_k": rng.choice((2, 5)),
            }))
        for offset, limit in ((0, 5), (5, 5), (0, 20)):
            page = {
                "dataset": dataset,
                "baseline": document.get("baseline"),
                "total_points": len(rows),
                "offset": offset,
                "limit": limit,
                "front": rows[offset:offset + limit],
            }
            mix.append(Request("page", dataset, "GET",
                               f"/fronts/{dataset}?offset={offset}&limit={limit}",
                               b"", 200, _json_bytes(page), etag))
    return fronts, mix


def _query(engine, kind: str, payload: dict) -> Request:
    result = engine.run(payload)
    etag = None if result.fingerprint is None else f'"{result.fingerprint}"'
    return Request(kind, payload["dataset"], "POST", "/query",
                   json.dumps(payload).encode("utf-8"), 200,
                   _json_bytes(result.as_dict()), etag)


def sequence(mix: Sequence[Request], count: int, seed: int) -> List[Request]:
    """``count`` requests drawn from ``mix`` by the seeded kind weights."""
    rng = random.Random(f"sequence-{seed}")
    by_kind: Dict[str, List[Request]] = {}
    for request in mix:
        by_kind.setdefault(request.kind, []).append(request)
    kinds = sorted(by_kind)
    weights = [MIX_WEIGHTS[kind] for kind in kinds]
    return [rng.choice(by_kind[rng.choices(kinds, weights)[0]]) for _ in range(count)]


@dataclass
class PhaseResult:
    """Latencies and checks of one phase."""

    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    not_modified: int = 0
    conditional: int = 0
    max_lateness: float = 0.0
    final_wait: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)

    def percentile(self, q: float) -> float:
        ordered = sorted(self.latencies)
        if not ordered:
            return float("inf")
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    @property
    def valid(self) -> bool:
        return self.max_lateness <= MAX_LATENESS_S


class _Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = bytearray()
        self.request: Optional[Request] = None
        self.due = 0.0
        self.free_since = 0.0

    def send(self, request: Request, due: float, wire: bytes) -> None:
        # Requests are far smaller than an idle socket's send buffer.
        self.sock.sendall(wire)
        self.request, self.due = request, due

    def response(self) -> Optional[Tuple[int, Dict[str, str], bytes]]:
        """One complete response off the buffer, or ``None`` if incomplete."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if len(self.buffer) < end + 4 + length:
            return None
        body = bytes(self.buffer[end + 4:end + 4 + length])
        del self.buffer[:end + 4 + length]
        return int(lines[0].split()[1]), headers, body

    def close(self) -> None:
        self.sock.close()


class Client:
    """Keep-alive connections to one server, reused across phases."""

    def __init__(self, port: int) -> None:
        self.connections = [_Connection(port) for _ in range(CONNECTIONS)]
        self.selector = selectors.DefaultSelector()
        for connection in self.connections:
            self.selector.register(connection.sock, selectors.EVENT_READ, connection)
        self.seen_etags: Dict[str, str] = {}

    def close(self) -> None:
        self.selector.close()
        for connection in self.connections:
            connection.close()

    def run(self, requests: Sequence[Request], rate: Optional[float]) -> PhaseResult:
        """Send ``requests`` at ``rate`` per second (``None``: closed loop)."""
        result = PhaseResult(attempted=len(requests))
        start = now()
        schedule = deque(
            (start if rate is None else start + i / rate, request)
            for i, request in enumerate(requests)
        )
        waiting: deque = deque()
        idle = deque(self.connections)
        for connection in self.connections:
            connection.free_since = start
        outstanding = 0
        while schedule or waiting or outstanding:
            moment = now()
            while schedule and schedule[0][0] <= moment:
                waiting.append(schedule.popleft())
            while waiting and idle:
                due, request = waiting.popleft()
                connection = idle.popleft()
                ready = max(due, connection.free_since)
                connection.send(request, due, request.wire(self.seen_etags))
                sent = now()
                result.max_lateness = max(result.max_lateness, sent - ready)
                result.final_wait = sent - due
                outstanding += 1
                if request.kind == "conditional":
                    result.conditional += 1
            timeout = None
            if schedule and not waiting:
                timeout = max(0.0, schedule[0][0] - now())
            if not outstanding:
                if timeout:
                    time.sleep(timeout)
                continue
            for key, _ in self.selector.select(timeout):
                connection = key.data
                try:
                    chunk = connection.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                connection.buffer += chunk
                answer = connection.response()
                if answer is None:
                    continue
                done = now()
                request, due = connection.request, connection.due
                result.latencies.append(done - due)
                self._check(request, answer, result)
                connection.request = None
                connection.free_since = done
                idle.append(connection)
                outstanding -= 1
        result.window = (start, now())
        return result

    def _check(self, request: Request, answer, result: PhaseResult) -> None:
        status, headers, body = answer
        if status == 304:
            result.not_modified += 1
        if status != request.status or body != request.expected:
            result.failures.append(
                f"{request.method} {request.target}: got {status} ({len(body)} bytes), "
                f"expected {request.status} ({len(request.expected)} bytes)"
            )
            return
        if request.etag is not None and headers.get("etag") != request.etag:
            result.failures.append(f"{request.target}: ETag {headers.get('etag')}")
            return
        if request.kind == "front":
            self.seen_etags[request.dataset] = headers["etag"]


def stepped(client: Client, mix: Sequence[Request], first_rate: float, step_s: float,
            seed: int, staircase: int) -> Tuple[float, List[dict], List[PhaseResult]]:
    """Estimate the highest rate whose p99 meets :data:`P99_LIMIT_MS`.

    A step offers one rate for ``step_s`` seconds. It fails when its p99
    exceeds the limit or its last request still waited in the generator's
    queue for longer than the limit, i.e. the backlog grew faster than the
    server drained it. The rate first grows by half per step from
    ``first_rate`` until a step fails (or shrinks by a third until one
    passes); then an up/down staircase of ``staircase`` steps starts between
    the last passing and the first failing rate, going up 10% after a pass
    and down 10% after a failure. ``max_rps`` is the geometric mean of the
    staircase's rates: it settles where steps pass half the time, and one
    slow moment of the host moves it by one step, not to the bracket's
    floor. Returns ``(max_rps, step rows, phases)``.
    """
    limit = P99_LIMIT_MS / 1e3
    rows: List[dict] = []
    phases: List[PhaseResult] = []

    def probe(rate: float) -> bool:
        phase = client.run(sequence(mix, int(rate * step_s), seed * 1000 + len(rows)), rate)
        phases.append(phase)
        p99 = phase.percentile(0.99)
        ok = p99 <= limit and phase.final_wait <= limit
        rows.append({"rate": round(rate, 1), "p99_ms": round(p99 * 1e3, 3),
                     "final_wait_ms": round(phase.final_wait * 1e3, 3), "ok": ok})
        return ok

    if probe(first_rate):
        passing, failing = first_rate, first_rate * 1.5
        while probe(failing):
            passing, failing = failing, failing * 1.5
    else:
        passing, failing = first_rate / 1.5, first_rate
        while not probe(passing):
            passing, failing = passing / 1.5, passing
    rate = (passing * failing) ** 0.5
    visited = []
    for _ in range(staircase):
        visited.append(rate)
        rate = rate * 1.1 if probe(rate) else rate / 1.1
    return math.exp(statistics.fmean(math.log(r) for r in visited)), rows, phases
