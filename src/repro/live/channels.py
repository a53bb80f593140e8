"""Bounded in-process channels for the live asyncio runtime.

A :class:`LiveChannel` is the live analogue of a network link: a bounded
FIFO between exactly one layer of producers and one consumer task.  The
bound is the backpressure mechanism — a full channel blocks ``put`` until
the consumer drains, so a slow entity slows its upstream senders instead
of growing an unbounded queue.  Channels carry *batches* (lists) of
items; :class:`Batcher` accumulates per-destination batches at the
sender, which amortises per-send overhead exactly like message batching
amortises per-packet overhead on a real wire.

Each channel is tagged with the network tier it models (``"wan"`` or
``"lan"``) and an optional delivery latency in wall-clock seconds; the
runtime derives that latency from the simulated tier latencies and its
time-scale factor, so an unscaled ("as fast as possible") run pays no
sleeps at all.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Iterable
from typing import Any

from repro.simulation.network import LAN, WAN

__all__ = ["Batcher", "ChannelClosed", "LiveChannel", "LAN", "WAN"]


class ChannelClosed(Exception):
    """Raised by ``put``/``get`` once a channel has been closed."""


class LiveChannel:
    """A bounded FIFO channel with blocking-put backpressure.

    Args:
        name: Diagnostic name (e.g. ``"inbox/entity-3"``).
        capacity: Maximum queued batches; ``put`` blocks at the bound.
        tier: ``"wan"`` or ``"lan"`` — which network tier this models.
        latency: Wall-clock seconds each batch spends "on the wire"
            (applied on the consumer side of ``get``).
    """

    def __init__(
        self,
        name: str,
        *,
        capacity: int = 256,
        tier: str = WAN,
        latency: float = 0.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.tier = tier
        self.latency = latency
        self._items: deque[Any] = deque()
        self._cond = asyncio.Condition()
        self._closed = False
        # accounting (read by metrics / tests)
        self.puts = 0
        self.gets = 0
        self.high_water = 0
        self.blocked_puts = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Batches currently queued."""
        return len(self._items)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    async def put(self, item: Any) -> None:
        """Enqueue one batch, blocking while the channel is full.

        Raises :class:`ChannelClosed` if the channel is (or becomes)
        closed before the item is accepted.  Cancellation (e.g. via
        ``asyncio.wait_for`` — how the transport implements its send
        timeout) is safe: a cancelled ``put`` never enqueues.
        """
        async with self._cond:
            if self._closed:
                raise ChannelClosed(self.name)
            if len(self._items) >= self.capacity:
                self.blocked_puts += 1
            while len(self._items) >= self.capacity and not self._closed:
                await self._cond.wait()
            if self._closed:
                raise ChannelClosed(self.name)
            self._items.append(item)
            self.puts += 1
            if len(self._items) > self.high_water:
                self.high_water = len(self._items)
            self._cond.notify_all()

    async def get(self) -> Any:
        """Dequeue the next batch, blocking while the channel is empty.

        Raises :class:`ChannelClosed` once the channel is closed *and*
        drained — a close never discards queued batches.
        """
        async with self._cond:
            while not self._items and not self._closed:
                await self._cond.wait()
            if not self._items:
                raise ChannelClosed(self.name)
            item = self._items.popleft()
            self.gets += 1
            self._cond.notify_all()
        if self.latency > 0.0:
            await asyncio.sleep(self.latency)
        return item

    async def close(self) -> None:
        """Close the channel, waking every blocked producer/consumer."""
        async with self._cond:
            self._closed = True
            self._cond.notify_all()

    async def fail(self) -> list[Any]:
        """Close the channel *and* discard its queued batches.

        Models the consumer's host crashing: unlike :meth:`close` (a
        graceful shutdown that lets queued batches drain), a failed
        channel loses everything still queued.  Returns the discarded
        batches so the caller can account the lost tuples — the chaos
        layer feeds them to the work tracker, keeping quiescence
        detection exact even mid-crash.
        """
        async with self._cond:
            self._closed = True
            lost = list(self._items)
            self._items.clear()
            self._cond.notify_all()
        return lost


class Batcher:
    """Accumulates items into fixed-size batches for one destination."""

    def __init__(self, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._pending: list[Any] = []
        self.batches_formed = 0

    @property
    def pending(self) -> int:
        """Items waiting for the current batch to fill or flush."""
        return len(self._pending)

    def add(self, item: Any) -> list[Any] | None:
        """Add one item; returns a full batch when the bound is reached."""
        self._pending.append(item)
        if len(self._pending) >= self.batch_size:
            return self.take()
        return None

    def add_many(self, items: Iterable[Any]) -> list[list[Any]]:
        """Add many items at once; returns every full batch formed.

        The batch analogue of calling :meth:`add` per item: batches come
        out in the same ``batch_size``-sized chunks, items in order, a
        trailing partial chunk stays pending.
        """
        pending = self._pending
        pending.extend(items)
        size = self.batch_size
        if len(pending) < size:
            return []
        full = [
            pending[start : start + size]
            for start in range(0, len(pending) - size + 1, size)
        ]
        del pending[: len(full) * size]
        self.batches_formed += len(full)
        return full

    def take(self) -> list[Any] | None:
        """Flush the partial batch (``None`` when nothing is pending)."""
        if not self._pending:
            return None
        batch = self._pending
        self._pending = []
        self.batches_formed += 1
        return batch
