"""The bounded admission queue: per-lane bounds, explicit shed policies.

One :class:`AdmissionQueue` fronts the coalescer workers.  Estimate and
route tickets queue in separate *lanes* (so each lane can be drained into
its own kernel-sized batch), each lane bounded at ``capacity`` tickets.
What happens when a lane is full is the *backpressure policy*:

* ``"block"`` -- the submitting thread waits for room (optionally bounded
  by ``block_timeout_s``); classic producer-side backpressure;
* ``"reject"`` -- admission fails immediately; the caller's ticket is
  fulfilled with a typed ``"rejected"`` response;
* ``"drop-oldest"`` -- the new ticket is admitted by shedding the oldest
  queued ticket of the same lane, which is fulfilled with a typed
  ``"dropped"`` response (freshest-work-wins under overload).

All three keep queue depth -- and therefore memory -- bounded; the
difference is *who* pays under overload (producers, new arrivals, or the
backlog).  The design follows bounded job queues in serving systems
(ROADMAP item 2's exemplar) and the graceful-degradation argument of
Dynamic Hybrid Hash Join (PAPERS.md): shed explicitly, never collapse.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from ..config import (
    BACKPRESSURE_BLOCK,
    BACKPRESSURE_DROP_OLDEST,
    BACKPRESSURE_POLICIES,
    BACKPRESSURE_REJECT,
)
from ..exceptions import FrontendError
from .requests import LANES, Ticket

@dataclass(frozen=True)
class OfferResult:
    """Outcome of one admission attempt.

    The queue never fulfils tickets itself -- the front-end does, so its
    pending-work accounting (what :meth:`ServingFrontend.drain` waits on)
    sees every resolution.  ``dropped`` carries the ticket shed by the
    ``drop-oldest`` policy, still pending, for the caller to answer.
    """

    admitted: bool
    dropped: "Ticket | None" = None


class TakenBatch(NamedTuple):
    """One dequeued lane-homogeneous batch.

    ``first_popped_at_s`` is when the batch's *first* ticket left the
    queue -- the boundary between a ticket's admission wait and the
    coalescer linger it then sat through (tracing splits the two spans on
    it).  Tickets arriving during the linger have
    ``submitted_at_s > first_popped_at_s`` and an admission wait of zero.
    """

    lane: str
    tickets: list[Ticket]
    first_popped_at_s: float


class AdmissionQueue:
    """A bounded, multi-lane MPMC ticket queue with shed policies.

    Thread-safe: any number of submitting threads may ``offer`` while
    coalescer workers ``take_batch``.  ``close()`` wakes every waiter so
    shutdown never deadlocks on a blocked producer or an idle worker.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = BACKPRESSURE_BLOCK,
        block_timeout_s: float | None = None,
    ) -> None:
        if capacity < 1:
            raise FrontendError(f"queue capacity must be >= 1, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise FrontendError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, got {policy!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self.block_timeout_s = block_timeout_s
        self._lock = threading.Lock()
        #: Signalled when a ticket arrives or the queue closes (workers wait).
        self._not_empty = threading.Condition(self._lock)
        #: Signalled when room frees up in a lane (blocked producers wait).
        self._not_full = threading.Condition(self._lock)
        self._lanes: dict[str, deque[Ticket]] = {lane: deque() for lane in LANES}
        self._closed = False
        # Counters (guarded by the lock).
        self._admitted = 0
        self._rejected = 0
        self._dropped = 0
        self._max_depth = 0

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def offer(self, ticket: Ticket) -> OfferResult:
        """Admit ``ticket`` into its lane, applying the backpressure policy.

        Shedding is reported, never performed: a rejected offer comes back
        ``admitted=False`` and a ``drop-oldest`` eviction comes back in
        ``dropped``, both still unfulfilled -- answering them (typed
        responses) is the front-end's job.  Raises :class:`FrontendError`
        on a closed queue (API misuse, not load).
        """
        lane = self._lanes.get(ticket.lane)
        if lane is None:  # pragma: no cover - Ticket already validates
            raise FrontendError(f"unknown lane {ticket.lane!r}")
        with self._lock:
            if self._closed:
                raise FrontendError("cannot submit to a closed admission queue")
            dropped: Ticket | None = None
            if len(lane) >= self.capacity:
                if self.policy == BACKPRESSURE_REJECT:
                    self._rejected += 1
                    return OfferResult(admitted=False)
                if self.policy == BACKPRESSURE_DROP_OLDEST:
                    dropped = lane.popleft()
                    self._dropped += 1
                else:  # block
                    deadline = (
                        None
                        if self.block_timeout_s is None
                        else time.perf_counter() + self.block_timeout_s
                    )
                    while len(lane) >= self.capacity and not self._closed:
                        if deadline is None:
                            self._not_full.wait()
                        else:
                            remaining = deadline - time.perf_counter()
                            if remaining <= 0:
                                self._rejected += 1
                                return OfferResult(admitted=False)
                            self._not_full.wait(remaining)
                    if self._closed:
                        raise FrontendError(
                            "admission queue closed while blocked on a full lane"
                        )
            lane.append(ticket)
            self._admitted += 1
            depth = sum(len(q) for q in self._lanes.values())
            if depth > self._max_depth:
                self._max_depth = depth
            self._not_empty.notify()
            return OfferResult(admitted=True, dropped=dropped)

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def take_batch(
        self,
        max_batch: int,
        linger_s: float = 0.0,
        wait_timeout_s: float = 0.1,
    ) -> TakenBatch | None:
        """Dequeue one lane-homogeneous batch of up to ``max_batch`` tickets.

        Blocks up to ``wait_timeout_s`` for the first ticket (returning
        ``None`` when the queue stayed empty -- workers use this to poll
        their stop flag).  Once a first ticket is taken, the lane with the
        *oldest* head is chosen and up to ``linger_s`` is spent waiting
        for more same-lane arrivals to fill the batch; under load the
        batch fills immediately and the linger never elapses.

        Returns a :class:`TakenBatch` (``(lane, tickets,
        first_popped_at_s)``); after ``close()``, drains whatever remains
        and then returns ``None`` forever.
        """
        if max_batch < 1:
            raise FrontendError(f"max_batch must be >= 1, got {max_batch}")
        with self._lock:
            if not self._wait_not_empty(wait_timeout_s):
                return None
            lane_name = self._oldest_lane()
            assert lane_name is not None
            lane = self._lanes[lane_name]
            batch = self._pop_up_to(lane, max_batch)
            first_popped_at_s = time.perf_counter()
            if len(batch) < max_batch and linger_s > 0 and not self._closed:
                deadline = time.perf_counter() + linger_s
                while len(batch) < max_batch and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._not_empty.wait(remaining)
                    batch.extend(self._pop_up_to(lane, max_batch - len(batch)))
            self._not_full.notify_all()
            return TakenBatch(lane_name, batch, first_popped_at_s)

    def _wait_not_empty(self, wait_timeout_s: float) -> bool:
        """Wait (holding the lock) until a ticket is queued; False on timeout."""
        if any(self._lanes.values()):
            return True
        if self._closed:
            return False
        deadline = time.perf_counter() + wait_timeout_s
        while not any(self._lanes.values()):
            if self._closed:
                return False
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return False
            self._not_empty.wait(remaining)
        return True

    def _oldest_lane(self) -> str | None:
        """The lane whose head ticket has waited longest (fairness across lanes)."""
        best: str | None = None
        best_submitted = float("inf")
        for name, lane in self._lanes.items():
            if lane and lane[0].submitted_at_s < best_submitted:
                best = name
                best_submitted = lane[0].submitted_at_s
        return best

    @staticmethod
    def _pop_up_to(lane: deque[Ticket], n: int) -> list[Ticket]:
        return [lane.popleft() for _ in range(min(n, len(lane)))]

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def close(self) -> list[Ticket]:
        """Stop admitting, wake every waiter, and return the leftover backlog.

        The front-end fulfils the returned tickets (typed, per its
        shutdown semantics); the queue itself only guarantees nothing is
        silently lost.
        """
        with self._lock:
            self._closed = True
            leftovers = [ticket for lane in self._lanes.values() for ticket in lane]
            for lane in self._lanes.values():
                lane.clear()
            self._not_empty.notify_all()
            self._not_full.notify_all()
            return leftovers

    def depth(self, lane: str | None = None) -> int:
        """Queued tickets in ``lane`` (or across all lanes)."""
        with self._lock:
            if lane is not None:
                return len(self._lanes[lane])
            return sum(len(q) for q in self._lanes.values())

    def stats(self) -> dict[str, int]:
        """Admission counters: admitted / rejected / dropped / depth high-water."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "dropped": self._dropped,
                "depth": sum(len(q) for q in self._lanes.values()),
                "max_depth": self._max_depth,
            }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        depths = {name: len(lane) for name, lane in self._lanes.items()}
        return f"AdmissionQueue({depths}, capacity={self.capacity}, policy={self.policy!r})"
