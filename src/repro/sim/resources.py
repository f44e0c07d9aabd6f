"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — counted semaphore with FIFO queueing; models
  routers, gateway front-ends, memory ports.
* :class:`Store` — unbounded FIFO message queue; models buffers.
* :class:`BandwidthChannel` — a serial transmission medium: each transfer
  occupies the channel for ``bits / bandwidth`` seconds, FIFO.  Models a
  waveguide (with its wavelength comb aggregated into one bandwidth
  figure) or an electrical link.  Bandwidth may be changed at runtime —
  that is exactly what the reconfiguration controllers do — and in-flight
  transfers are unaffected (they were admitted at the old rate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Deque, Generator

from ..errors import SimulationError
from .core import Environment, Event, Timeout

_timeout_new = Timeout.__new__


@dataclass(frozen=True)
class ChannelStat:
    """Utilization snapshot of one :class:`Resource` or
    :class:`BandwidthChannel`, taken at the end of a run.

    Attached to the execution trace (and exported with results) so that
    runs farmed out to worker processes remain debuggable: the snapshot
    travels with the pickled :class:`~repro.core.metrics.InferenceResult`
    even though the simulation objects themselves do not.
    """

    name: str
    utilization: float
    busy_time_s: float
    bits_transferred: float = 0.0
    transfer_count: int = 0
    queue_length: int = 0


class Resource:
    """A counted resource with FIFO request queueing."""

    __slots__ = ("env", "capacity", "_in_use", "_waiting", "_busy_since",
                 "_busy_time")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Event] = deque()
        # Busy-time integration for utilization reporting.
        self._busy_since: float | None = None
        self._busy_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._waiting)

    def request(self) -> Event:
        """Acquire a slot; the returned event fires when granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._grant(event)
        else:
            self._waiting.append(event)
        return event

    def _grant(self, event: Event) -> None:
        if self._in_use == 0:
            self._busy_since = self.env._now
        self._in_use += 1
        event.succeed()

    def release(self) -> None:
        """Release one held slot; grants the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.env._now - self._busy_since
            self._busy_since = None
        if self._waiting:
            self._grant(self._waiting.popleft())

    def busy_time(self) -> float:
        """Total time the resource had at least one holder (s)."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def utilization(self) -> float:
        """Fraction of elapsed time the resource was busy."""
        if self.env.now == 0.0:
            return 0.0
        return self.busy_time() / self.env.now

    def stats(self, name: str = "resource") -> ChannelStat:
        """Snapshot utilization for trace export."""
        return ChannelStat(
            name=name,
            utilization=self.utilization(),
            busy_time_s=self.busy_time(),
            queue_length=self.queue_length,
        )


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Take the oldest item; the event fires with the item as value."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class BandwidthChannel:
    """A serial channel: transfers occupy it for ``bits / bandwidth``.

    The channel is callback-driven rather than process-driven: a
    transfer is ``(bits, fn)`` — the channel holds for the
    serialization time (computed when the transfer is *granted*, so
    queued transfers pick up rate changes and in-flight ones do not),
    then invokes ``fn``.  FIFO among all transfers.  This is the
    hottest path of every fabric simulation: one heap event per chunk,
    no coroutine frame, no per-chunk resource events.  Every fabric
    drives its channels through :meth:`request_transfer`.  The
    generator :meth:`transfer` shares the same FIFO; it serves only the
    kernel tests and the channel-contention microbenchmark.
    """

    __slots__ = ("env", "name", "_bandwidth_bps", "_waiting", "_busy",
                 "_busy_since", "_busy_time", "_active_bits", "_active_fn",
                 "_complete_cb", "bits_transferred", "transfer_count")

    def __init__(self, env: Environment, bandwidth_bps: float,
                 name: str = "channel"):
        if bandwidth_bps <= 0:
            raise SimulationError(
                f"channel {name!r} bandwidth must be positive"
            )
        self.env = env
        self.name = name
        self._bandwidth_bps = bandwidth_bps
        self._waiting: Deque[tuple[float, Any]] = deque()
        self._busy = False
        self._busy_since: float | None = None
        self._busy_time = 0.0
        self._active_bits = 0.0
        self._active_fn: Any = None
        self._complete_cb = self._complete  # bind once, reuse per chunk
        self.bits_transferred = 0.0
        self.transfer_count = 0

    @property
    def bandwidth_bps(self) -> float:
        """Current channel bandwidth (b/s)."""
        return self._bandwidth_bps

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Reconfigure the channel rate (controllers call this per epoch)."""
        if bandwidth_bps <= 0:
            raise SimulationError(
                f"channel {self.name!r} bandwidth must be positive"
            )
        self._bandwidth_bps = bandwidth_bps

    def serialization_time(self, bits: float) -> float:
        """Time to clock ``bits`` onto the channel at the current rate (s)."""
        if bits < 0:
            raise SimulationError("cannot transfer negative bits")
        return bits / self._bandwidth_bps

    def request_transfer(self, bits: float, fn) -> None:
        """Queue one transfer; ``fn()`` runs when it completes.

        The fast path for chunk pipelines: grants immediately on an
        idle channel, otherwise queues FIFO behind every earlier
        transfer (including :meth:`transfer`-issued ones).
        """
        if bits < 0:
            raise SimulationError("cannot transfer negative bits")
        if self._busy:
            self._waiting.append((bits, fn))
            return
        self._busy = True
        env = self.env
        self._busy_since = env._now
        # Grant: the hold is locked in now, so later rate changes only
        # affect transfers still waiting.  The hold Timeout is built and
        # scheduled inline, exactly as ``Environment.timeout`` would.
        self._active_bits = bits
        self._active_fn = fn
        hold = _timeout_new(Timeout)
        hold.env = env
        hold.callbacks = self._complete_cb
        hold._triggered = True
        hold._processed = False
        hold._value = None
        seq = env._sequence = env._sequence + 1
        delay = bits / self._bandwidth_bps
        if delay == 0.0:
            env._immediate.append((seq, hold))
        else:
            heappush(env._queue, (env._now + delay, seq, hold))

    def _complete(self, _event: Event) -> None:
        bits = self._active_bits
        fn = self._active_fn
        self.bits_transferred += bits
        self.transfer_count += 1
        env = self.env
        if self._waiting:
            # Grant the next waiter inline (same steps as above).
            next_bits, self._active_fn = self._waiting.popleft()
            self._active_bits = next_bits
            hold = _timeout_new(Timeout)
            hold.env = env
            hold.callbacks = self._complete_cb
            hold._triggered = True
            hold._processed = False
            hold._value = None
            seq = env._sequence = env._sequence + 1
            delay = next_bits / self._bandwidth_bps
            if delay == 0.0:
                env._immediate.append((seq, hold))
            else:
                heappush(env._queue, (env._now + delay, seq, hold))
        else:
            self._busy = False
            self._busy_time += env._now - self._busy_since
            self._busy_since = None
            self._active_fn = None
        fn()

    def transfer(self, bits: float,
                 extra_latency_s: float = 0.0) -> Generator[Event, Any, None]:
        """Process: occupy the channel for the serialization time.

        ``extra_latency_s`` (propagation, conversion) is added *after* the
        channel is released — it is pipeline latency, not occupancy.
        """
        done = Event(self.env)
        self.request_transfer(bits, done.succeed)
        yield done
        if extra_latency_s > 0.0:
            yield self.env.timeout(extra_latency_s)

    def busy_time(self) -> float:
        """Total time the channel carried a transfer (s)."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def utilization(self) -> float:
        """Fraction of simulated time the channel carried a transfer."""
        if self.env.now == 0.0:
            return 0.0
        return self.busy_time() / self.env.now

    @property
    def queue_length(self) -> int:
        """Transfers currently waiting for the channel."""
        return len(self._waiting)

    def stats(self) -> ChannelStat:
        """Snapshot utilization/traffic counters for trace export."""
        return ChannelStat(
            name=self.name,
            utilization=self.utilization(),
            busy_time_s=self.busy_time(),
            bits_transferred=self.bits_transferred,
            transfer_count=self.transfer_count,
            queue_length=self.queue_length,
        )
