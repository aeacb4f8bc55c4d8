"""Bounded request queue with pluggable overflow behaviour.

The runtime admits requests through this queue; when producers outpace the
serving loop the ``overflow`` policy decides what happens:

- ``"block"``  — backpressure: ``put`` waits for capacity (optionally up
  to ``timeout`` seconds, then raises);
- ``"reject"`` — fail fast: ``put`` raises :class:`~repro.errors.ServingError`
  immediately, which the runtime converts into a rejected future.

All operations are thread-safe; the queue is the only synchronization
point between producer threads and the serving loop.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import ServingError

__all__ = ["OVERFLOW_POLICIES", "BoundedRequestQueue", "QueueFullError",
           "QueueClosedError"]

OVERFLOW_POLICIES = ("block", "reject")


class QueueFullError(ServingError):
    """The queue is at capacity and the policy forbids waiting."""


class QueueClosedError(ServingError):
    """The queue was closed; no further requests are admitted."""


class BoundedRequestQueue:
    """A thread-safe FIFO with a hard capacity and an overflow policy."""

    def __init__(self, capacity: int = 1024, overflow: str = "block") -> None:
        if capacity <= 0:
            raise ServingError(f"queue capacity must be positive, got {capacity}")
        if overflow not in OVERFLOW_POLICIES:
            raise ServingError(
                f"unknown overflow policy {overflow!r}; "
                f"use one of {', '.join(OVERFLOW_POLICIES)}")
        self.capacity = capacity
        self.overflow = overflow
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    def put(self, item, timeout: float | None = None) -> None:
        """Admit ``item``, or raise :class:`QueueFullError` as the
        overflow policy decides."""
        with self._lock:
            if self._closed:
                raise QueueClosedError("queue is closed")
            if len(self._items) >= self.capacity:
                if self.overflow == "reject":
                    raise QueueFullError(
                        f"queue full ({self.capacity} requests); "
                        "request rejected")
                # block — backpressure on the producer
                if not self._not_full.wait_for(
                        lambda: len(self._items) < self.capacity
                        or self._closed,
                        timeout=timeout):
                    raise QueueFullError(
                        f"queue full ({self.capacity} requests); "
                        f"timed out after {timeout}s of backpressure")
                if self._closed:
                    raise QueueClosedError("queue closed while waiting")
            self._items.append(item)
            self._not_empty.notify()

    def get(self, timeout: float | None = None):
        """Pop the oldest request; ``None`` on timeout or when closed-and-empty."""
        with self._lock:
            if not self._not_empty.wait_for(
                    lambda: self._items or self._closed, timeout=timeout):
                return None
            if not self._items:
                return None  # closed and drained
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def get_nowait(self):
        """Pop the oldest request without waiting; ``None`` when empty."""
        with self._lock:
            if not self._items:
                return None
            item = self._items.popleft()
            self._not_full.notify()
            return item

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admissions; pending items can still be drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:
        return (f"BoundedRequestQueue(capacity={self.capacity}, "
                f"overflow={self.overflow!r}, pending={len(self)})")
