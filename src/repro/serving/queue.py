"""Bounded request queue with backpressure.

The runtime admits requests through this queue.  When producers outpace
the serving loop, ``put`` waits for capacity — up to ``timeout`` seconds,
then raises :class:`QueueFullError`; ``timeout=0`` fails fast, which the
runtime converts into a rejected future.

All operations are thread-safe; the queue is the only synchronization
point between producer threads and the serving loop.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import ServingError

__all__ = ["BoundedRequestQueue", "QueueFullError", "QueueClosedError"]


class QueueFullError(ServingError):
    """The queue stayed at capacity for the whole ``put`` timeout."""


class QueueClosedError(ServingError):
    """The queue was closed; no further requests are admitted."""


class BoundedRequestQueue:
    """A thread-safe FIFO with a hard capacity."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ServingError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    def put(self, item, timeout: float | None = None) -> None:
        """Admit ``item``, waiting up to ``timeout`` seconds (``None``:
        forever) for capacity, else raise :class:`QueueFullError`."""
        with self._lock:
            if self._closed:
                raise QueueClosedError("queue is closed")
            if len(self._items) >= self.capacity:
                if not self._not_full.wait_for(
                        lambda: len(self._items) < self.capacity
                        or self._closed,
                        timeout=timeout):
                    raise QueueFullError(
                        f"queue full ({self.capacity} requests); "
                        f"waited {timeout}s for capacity")
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

    def wait(self, ready) -> None:
        """Block until an item is queued, the queue closes, or ``ready()``
        holds; :meth:`wake` makes a waiter check ``ready()`` again."""
        with self._lock:
            self._not_empty.wait_for(
                lambda: self._items or self._closed or ready())

    def wake(self) -> None:
        with self._lock:
            self._not_empty.notify_all()

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
                f"pending={len(self)})")
