"""Open-loop load generation and the percentile rule, stdlib only.

An open loop sends each request when it is due, whatever happened to
the previous ones, so a stall shows up as waiting on every later
request.  Latency is therefore timed from the *due* time, and the
generator reports how late it actually sent (its lateness), which
grows when the client itself cannot keep up.  Arrivals are Poisson:
independent callers, seeded so a seed always gives the same schedule.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1), linear between closest ranks.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples
    lie beyond the percentile's rank: such a tail is a guess.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = q * (n - 1)
    low = math.floor(rank)
    beyond = n - 1 - low
    if n == 0 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(beyond, 0)}"
        )
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def poisson_schedule(rate: float, count: int, seed: int) -> List[float]:
    """*count* due times (seconds from start) of a seeded Poisson process."""
    rng = random.Random(seed)
    due, schedule = 0.0, []
    for _ in range(count):
        schedule.append(due)
        due += rng.expovariate(rate)
    return schedule


@dataclass
class Outcome:
    """One request: times are seconds from the loop's start."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    info: object = None

    @property
    def latency(self) -> float:
        """From due time to completion (includes the generator's lateness)."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class OpenLoop:
    """Send request *i* at ``schedule[i]`` from a fixed set of threads.

    Each thread owns one connection (its *slot*) and takes the next due
    request whenever it is free.  ``send(slot, index)`` returns
    ``(ok, info)``; an exception counts as a failed request.
    """

    def __init__(self, schedule: Sequence[float],
                 send: Callable[[int, int], Tuple[bool, object]],
                 threads: int = 2,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.schedule = list(schedule)
        self.send = send
        self.threads = threads
        self._clock = clock
        self._sleep = sleep

    def run(self, join_timeout: Optional[float] = None) -> List[Outcome]:
        outcomes: List[Optional[Outcome]] = [None] * len(self.schedule)
        lock = threading.Lock()
        cursor = [0]
        start = self._clock()

        def worker(slot: int) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(self.schedule):
                        return
                    cursor[0] += 1
                due = self.schedule[index]
                wait = start + due - self._clock()
                if wait > 0:
                    self._sleep(wait)
                sent = self._clock()
                try:
                    ok, info = self.send(slot, index)
                except Exception as exc:  # a failed request, not a failed run
                    ok, info = False, f"{type(exc).__name__}: {exc}"
                outcomes[index] = Outcome(index, due, sent - start,
                                          self._clock() - start, ok, info)

        workers = [threading.Thread(target=worker, args=(slot,), daemon=True)
                   for slot in range(self.threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(join_timeout)
            if thread.is_alive():
                raise TimeoutError("load generator thread did not finish")
        return [o for o in outcomes if o is not None]


class CheckClient:
    """Keep-alive HTTP/1.1 clients posting ``/v1/check``, one per slot.

    The decoded ``report`` of the first *keep_reports* requests is
    returned for comparison; later successes return ``None``.
    """

    def __init__(self, port: int, bodies: Sequence[bytes], slots: int,
                 request_ids: Sequence[str], keep_reports: int = 0,
                 timeout: float = 30.0) -> None:
        self.port = port
        self.bodies = bodies
        self.request_ids = request_ids
        self.keep_reports = keep_reports
        self.timeout = timeout
        self._connections: List[Optional[http.client.HTTPConnection]] = [None] * slots

    def _connection(self, slot: int) -> http.client.HTTPConnection:
        conn = self._connections[slot]
        if conn is None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=self.timeout)
            conn.connect()
            # The client must not add delays of its own: http.client writes
            # headers and body separately, which Nagle would hold back.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._connections[slot] = conn
        return conn

    def send(self, slot: int, index: int) -> Tuple[bool, object]:
        conn = self._connection(slot)
        try:
            conn.request("POST", "/v1/check",
                         body=self.bodies[index % len(self.bodies)],
                         headers={"Content-Type": "application/json",
                                  "X-Request-Id": self.request_ids[index]})
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self._connections[slot] = None
            raise
        if response.status != 200:
            return False, response.status
        if index >= self.keep_reports:
            return True, None  # decoding every body would load the client's cores
        return True, json.loads(raw)["report"]

    def close(self) -> None:
        for conn in self._connections:
            if conn is not None:
                conn.close()
