"""Dynamic batch coalescing: queued tickets -> kernel-sized service batches.

The estimation stack is fastest when it is fed *batches*: the service
deduplicates shared cache keys and a shared decomposition runs the MC
kernel once.
Closed-loop callers never produce those batches -- concurrent open-loop
traffic does, if something coalesces it.  :class:`BatchCoalescer` is that
something: it drains the admission queue into lane-homogeneous batches
bounded by ``max_batch_size``, waiting at most ``max_linger_ms`` after the
first dequeue for stragglers (under load the batch fills instantly and the
linger never elapses; at low rates it bounds the coalescing latency).

Deadline enforcement happens here, at the last moment before dispatch: a
ticket whose deadline expired while it queued is split out of the batch so
the worker can answer it with a typed ``"timeout"`` response instead of
wasting service work on an answer nobody is waiting for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..exceptions import FrontendError
from .admission import AdmissionQueue
from .requests import Ticket


@dataclass(frozen=True)
class CoalescedBatch:
    """One drained batch: the live tickets plus any that expired queueing.

    ``queue_times_s[i]`` is how long ``live[i]`` waited in the admission
    queue (dequeue time minus submit time) -- the queueing component of
    its final latency.
    """

    lane: str
    live: tuple[Ticket, ...]
    expired: tuple[Ticket, ...]
    dequeued_at_s: float
    #: When the batch's first ticket left the queue -- the boundary between
    #: admission wait and coalescer linger (tracing splits spans on it).
    first_dequeued_at_s: float = 0.0
    queue_times_s: tuple[float, ...] = field(default=())

    @property
    def size(self) -> int:
        return len(self.live)


class BatchCoalescer:
    """Drains an :class:`AdmissionQueue` into dispatchable batches."""

    def __init__(
        self,
        queue: AdmissionQueue,
        max_batch_size: int,
        max_linger_ms: float = 0.0,
    ) -> None:
        if max_batch_size < 1:
            raise FrontendError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_linger_ms < 0:
            raise FrontendError(f"max_linger_ms must be >= 0, got {max_linger_ms}")
        self.queue = queue
        self.max_batch_size = max_batch_size
        self.max_linger_ms = max_linger_ms

    def next_batch(self, wait_timeout_s: float = 0.1) -> CoalescedBatch | None:
        """The next lane-homogeneous batch, or ``None`` when none arrived.

        ``None`` is the worker's cue to re-check its stop flag; it does
        not mean the front-end is done.
        """
        taken = self.queue.take_batch(
            self.max_batch_size,
            linger_s=self.max_linger_ms / 1e3,
            wait_timeout_s=wait_timeout_s,
        )
        if taken is None:
            return None
        lane, tickets, first_popped_at_s = taken
        if not tickets:
            return None
        now = time.perf_counter()
        live: list[Ticket] = []
        expired: list[Ticket] = []
        for ticket in tickets:
            (expired if ticket.expired(now) else live).append(ticket)
        return CoalescedBatch(
            lane=lane,
            live=tuple(live),
            expired=tuple(expired),
            dequeued_at_s=now,
            first_dequeued_at_s=first_popped_at_s,
            queue_times_s=tuple(now - ticket.submitted_at_s for ticket in live),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BatchCoalescer(max_batch={self.max_batch_size}, "
            f"linger={self.max_linger_ms}ms)"
        )
